package core

import (
	"strings"
	"time"

	"ofc/internal/faas"
)

// Storage triggers (§2.1: "updates within a given object storage
// bucket" fire functions; §5.1.2: for such invocations the feature
// extraction runs synchronously, the one case it sits on the critical
// path).

// FeatureExtractor derives an object's descriptive features from its
// content (our stand-in for decoding image/audio headers).
type FeatureExtractor func(key string, size int64) map[string]float64

// TriggerRule maps a key prefix to a function.
type triggerRule struct {
	prefix string
	fn     *faas.Function
	args   map[string]float64
}

// Triggers dispatches object-creation events to functions.
type Triggers struct {
	sys       *System
	extractor FeatureExtractor
	rules     []triggerRule
	fired     int64
}

// extractionCost is the synchronous feature-extraction charge on the
// trigger path (§5.1.2).
const extractionCost = 5 * time.Millisecond

// NewTriggers wires the trigger dispatcher to the system's RSDS.
func NewTriggers(sys *System, extractor FeatureExtractor) *Triggers {
	t := &Triggers{sys: sys, extractor: extractor}
	sys.RSDS.OnCreated(func(key string, size int64) {
		t.dispatch(key, size)
	})
	return t
}

// Register adds a rule: external creations under prefix invoke fn with
// the new object as input.
func (t *Triggers) Register(prefix string, fn *faas.Function, args map[string]float64) {
	t.rules = append(t.rules, triggerRule{prefix: prefix, fn: fn, args: args})
}

// Fired reports how many invocations triggers have launched.
func (t *Triggers) Fired() int64 { return t.fired }

// dispatch fires every matching rule asynchronously.
func (t *Triggers) dispatch(key string, size int64) {
	for _, r := range t.rules {
		if !strings.HasPrefix(key, r.prefix) {
			continue
		}
		t.fired++
		t.sys.Env.Go(func() {
			// Synchronous feature extraction on the trigger path
			// (§5.1.2): the object was not pre-annotated, so the
			// platform reads its metadata now.
			t.sys.Env.Sleep(extractionCost)
			var features map[string]float64
			if t.extractor != nil {
				features = t.extractor(key, size)
			}
			t.sys.Platform.Invoke(&faas.Request{
				Function:      r.fn,
				InputKeys:     []string{key},
				Args:          r.args,
				InputFeatures: features,
			})
		})
	}
}
