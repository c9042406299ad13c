package baseline

import (
	"pipette/internal/metrics"
)

// PipetteEngine is the full framework: fine-grained read path plus the
// adaptive fine-grained read cache.
type PipetteEngine struct {
	*Stack
	name string
}

// NewPipette builds the full-framework engine.
func NewPipette(cfg StackConfig) (*PipetteEngine, error) {
	return newPipetteEngine(cfg, false)
}

// NewPipetteNoCache builds the paper's "Pipette w/o cache" configuration:
// the byte-granular path without the fine-grained read cache.
func NewPipetteNoCache(cfg StackConfig) (*PipetteEngine, error) {
	return newPipetteEngine(cfg, true)
}

func newPipetteEngine(cfg StackConfig, noCache bool) (*PipetteEngine, error) {
	s, err := buildArmed(cfg, true)
	if err != nil {
		return nil, err
	}
	name := "Pipette"
	if noCache {
		s.Core.DisableCache()
		name = "Pipette w/o cache"
	}
	return &PipetteEngine{Stack: s, name: name}, nil
}

// Name implements Engine.
func (e *PipetteEngine) Name() string { return e.name }

// Snapshot implements Engine.
func (e *PipetteEngine) Snapshot() metrics.Snapshot { return e.Stack.Snapshot(e.name) }
