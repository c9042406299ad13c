package telemetry

import (
	"pipette/internal/fault"
	"pipette/internal/resource"
)

// Instruments is the one seam through which a simulated stack's
// instruments reach its layers. A stack owns one value and hands every
// layer constructor a pointer to it; layers read the fields at their
// instrumentation sites and never write them. The owner may swap Tracer
// and Injector between requests, and every layer sees the change at its
// next site. Resources is read only at construction, when each layer
// registers its timelines.
//
// A nil *Instruments means all off: the no-op tracer, no stage account,
// no resource tracker and no fault injector.
type Instruments struct {
	Tracer    Tracer
	Stages    *StageAccount
	Resources *resource.Tracker
	Injector  *fault.Injector
}

// OrOff returns ins with a nil Tracer replaced by Nop(), or a fresh
// all-off value when ins is nil. Layer constructors call it once, so
// instrumentation sites read the fields without nil checks.
func (ins *Instruments) OrOff() *Instruments {
	if ins == nil {
		return &Instruments{Tracer: Nop()}
	}
	if ins.Tracer == nil {
		ins.Tracer = Nop()
	}
	return ins
}
