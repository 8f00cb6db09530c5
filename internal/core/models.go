package core

import (
	"encoding/json"
	"fmt"

	"ofc/internal/faas"
	"ofc/internal/mltree"
)

// The paper stores every function's trained models in OWK's CouchDB so
// that fetching a function's metadata also yields its Predictor models
// (§5.1). This file provides the wire format.

// ModelBundle is the serialized per-function learning state.
type ModelBundle struct {
	FunctionID string          `json:"function"`
	Mature     bool            `json:"mature"`
	MaturedAt  int             `json:"maturedAt"`
	Memory     json.RawMessage `json:"memory,omitempty"`
	Benefit    json.RawMessage `json:"benefit,omitempty"`
}

// ExportModel serializes fn's trained models.
func (p *Predictor) ExportModel(fn *faas.Function) ([]byte, error) {
	st := p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	b := ModelBundle{FunctionID: fn.ID(), Mature: st.mature, MaturedAt: st.maturedAt}
	if st.memModel != nil {
		data, err := mltree.MarshalTree(st.memModel)
		if err != nil {
			return nil, err
		}
		b.Memory = data
	}
	if st.benefitModel != nil {
		data, err := mltree.MarshalTree(st.benefitModel)
		if err != nil {
			return nil, err
		}
		b.Benefit = data
	}
	return json.Marshal(b)
}

// ImportModel restores fn's models from ExportModel output and
// compiles them, so an imported model serves like a fitted one.
func (p *Predictor) ImportModel(fn *faas.Function, data []byte) error {
	var b ModelBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("core: bad model bundle: %w", err)
	}
	if b.FunctionID != fn.ID() {
		return fmt.Errorf("core: bundle is for %s, not %s", b.FunctionID, fn.ID())
	}
	st := p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(b.Memory) > 0 {
		tree, err := mltree.UnmarshalTree(b.Memory)
		if err != nil {
			return err
		}
		st.memModel, st.memCompiled, st.memFitRows = tree, tree.Compile(), -1
	}
	if len(b.Benefit) > 0 {
		tree, err := mltree.UnmarshalTree(b.Benefit)
		if err != nil {
			return err
		}
		st.benefitModel, st.benefitCompiled, st.benefitFitRows = tree, tree.Compile(), -1
	}
	st.mature = b.Mature
	st.maturedAt = b.MaturedAt
	return nil
}
