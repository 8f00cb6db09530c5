package core

import (
	"encoding/json"
	"fmt"

	"ofc/internal/faas"
	"ofc/internal/mltree"
)

// The paper stores every function's trained models in OWK's CouchDB so
// that fetching a function's metadata also yields its Predictor models
// (§5.1). This file provides the wire format and the System-level
// persistence into the RSDS (our control-plane store stand-in).

// ModelBundle is the serialized per-function learning state.
type ModelBundle struct {
	FunctionID string          `json:"function"`
	Mature     bool            `json:"mature"`
	MaturedAt  int             `json:"maturedAt"`
	Memory     json.RawMessage `json:"memory,omitempty"`
	Benefit    json.RawMessage `json:"benefit,omitempty"`
}

// ExportModel serializes fn's trained models. Only J48 trees are
// exportable (the deployed configuration).
func (p *Predictor) ExportModel(fn *faas.Function) ([]byte, error) {
	st := p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	b := ModelBundle{FunctionID: fn.ID(), Mature: st.mature, MaturedAt: st.maturedAt}
	if st.memModel != nil {
		tree, ok := st.memModel.(*mltree.Tree)
		if !ok {
			return nil, fmt.Errorf("core: memory model of %s is not a serializable tree", fn.ID())
		}
		data, err := mltree.MarshalTree(tree)
		if err != nil {
			return nil, err
		}
		b.Memory = data
	}
	if st.benefitModel != nil {
		tree, ok := st.benefitModel.(*mltree.Tree)
		if !ok {
			return nil, fmt.Errorf("core: benefit model of %s is not a serializable tree", fn.ID())
		}
		data, err := mltree.MarshalTree(tree)
		if err != nil {
			return nil, err
		}
		b.Benefit = data
	}
	return json.Marshal(b)
}

// ImportModel restores fn's models from ExportModel output.
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
		st.memModel, st.memFitRows = tree, -1
	}
	if len(b.Benefit) > 0 {
		tree, err := mltree.UnmarshalTree(b.Benefit)
		if err != nil {
			return err
		}
		st.benefitModel, st.benefitFitRows = tree, -1
	}
	st.mature = b.Mature
	st.maturedAt = b.MaturedAt
	return nil
}

// modelKey is the RSDS key a function's models live under.
func modelKey(fn *faas.Function) string { return "ofc-models/" + fn.ID() }

// PersistModels writes fn's models next to the function metadata (the
// CouchDB role). Must run inside the simulation.
func (s *System) PersistModels(fn *faas.Function) error {
	data, err := s.Pred.ExportModel(fn)
	if err != nil {
		return err
	}
	s.RSDS.Put(s.CtrlNode, modelKey(fn), faas.Blob{Size: int64(len(data)), Data: data}, nil, false)
	return nil
}

// RestoreModels loads fn's models from the store, e.g. after a
// controller restart. Must run inside the simulation.
func (s *System) RestoreModels(fn *faas.Function) error {
	blob, _, err := s.RSDS.Get(s.CtrlNode, modelKey(fn), false)
	if err != nil {
		return fmt.Errorf("core: no stored models for %s: %w", fn.ID(), err)
	}
	return s.Pred.ImportModel(fn, blob.Data)
}
