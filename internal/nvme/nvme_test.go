package nvme

import (
	"errors"
	"testing"
	"testing/quick"

	"pipette/internal/sim"
)

func TestOpcodeAndStatusStrings(t *testing.T) {
	ops := map[Opcode]string{OpFlush: "Flush", OpWrite: "Write", OpRead: "Read",
		OpTrim: "Trim", OpFineRead: "FineRead"}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if StatusOK.String() != "OK" || StatusUnmapped.String() != "Unmapped" {
		t.Error("status strings wrong")
	}
	if !(Completion{Status: StatusOK}).Ok() || (Completion{Status: StatusInternal}).Ok() {
		t.Error("Ok() wrong")
	}
}

func TestSQFIFOAndWrap(t *testing.T) {
	q := NewSQ(4) // capacity 3
	if q.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", q.Cap())
	}
	// Several full fill/drain cycles to cross the wrap point.
	var n uint16
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < q.Cap(); i++ {
			if err := q.Push(Command{ID: n}); err != nil {
				t.Fatalf("push %d: %v", n, err)
			}
			n++
		}
		if err := q.Push(Command{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overfull push err = %v", err)
		}
		for i := 0; i < q.Cap(); i++ {
			c, err := q.Pop()
			if err != nil {
				t.Fatalf("pop: %v", err)
			}
			if want := n - uint16(q.Cap()) + uint16(i); c.ID != want {
				t.Fatalf("FIFO violated: got %d, want %d", c.ID, want)
			}
		}
		if _, err := q.Pop(); !errors.Is(err, ErrQueueEmpty) {
			t.Fatalf("empty pop err = %v", err)
		}
	}
}

func TestCQFIFO(t *testing.T) {
	q := NewCQ(3)
	if err := q.Push(Completion{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Completion{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Completion{ID: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want full", err)
	}
	c, _ := q.Pop()
	if c.ID != 1 {
		t.Fatalf("popped %d, want 1", c.ID)
	}
}

func TestQueueSizePanics(t *testing.T) {
	for _, f := range []func(){func() { NewSQ(1) }, func() { NewCQ(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("undersized queue did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: a random interleaving of pushes and pops preserves FIFO order.
func TestSQOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewSQ(8)
		var pushed, popped uint16
		for _, isPush := range ops {
			if isPush {
				if q.Push(Command{ID: pushed}) == nil {
					pushed++
				}
			} else {
				if c, err := q.Pop(); err == nil {
					if c.ID != popped {
						return false
					}
					popped++
				}
			}
		}
		return popped <= pushed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// echoDevice completes every command after a fixed service time.
type echoDevice struct {
	service sim.Time
	seen    []Command
}

func (d *echoDevice) Execute(now sim.Time, cmd *Command) Completion {
	d.seen = append(d.seen, *cmd)
	return Completion{Status: StatusOK, Done: now + d.service, BytesMoved: 4096}
}

func TestDriverSubmitTiming(t *testing.T) {
	dev := &echoDevice{service: 10 * sim.Microsecond}
	costs := DefaultCosts()
	d := NewDriverQueues(dev, 1, 16, costs)

	comp, err := d.Submit(100*sim.Microsecond, Command{Op: OpRead, LBA: 7, Pages: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := 100*sim.Microsecond + costs.Doorbell + costs.Fetch + dev.service + costs.Completion
	if comp.Done != want {
		t.Fatalf("Done = %v, want %v", comp.Done, want)
	}
	if !comp.Ok() || comp.BytesMoved != 4096 {
		t.Fatalf("completion = %+v", comp)
	}
	if len(dev.seen) != 1 || dev.seen[0].LBA != 7 {
		t.Fatalf("device saw %+v", dev.seen)
	}
}

func TestDriverAssignsIDs(t *testing.T) {
	dev := &echoDevice{}
	d := NewDriverQueues(dev, 1, 8, Costs{})
	for i := 0; i < 5; i++ {
		comp, err := d.Submit(0, Command{Op: OpFlush})
		if err != nil {
			t.Fatal(err)
		}
		if comp.ID != uint16(i) {
			t.Fatalf("completion ID = %d, want %d", comp.ID, i)
		}
	}
	sub, done := d.Stats()
	if sub != 5 || done != 5 {
		t.Fatalf("stats = %d/%d", sub, done)
	}
}

func TestCostsTotal(t *testing.T) {
	c := Costs{Doorbell: 1, Fetch: 2, Completion: 3}
	if c.Total() != 6 {
		t.Fatalf("Total = %v", c.Total())
	}
}

// sinkDevice completes every command after a fixed service time and
// keeps only counts, so it allocates nothing itself.
type sinkDevice struct {
	service sim.Time
	ops     [OpFineRead + 1]int
}

func (d *sinkDevice) Execute(now sim.Time, cmd *Command) Completion {
	d.ops[cmd.Op]++
	return Completion{Status: StatusOK, Done: now + d.service, BytesMoved: uint64(len(cmd.Data))}
}

// TestDriverSubmitAllocFree: the synchronous submit path — ring push,
// fetch, execute, completion reap — allocates nothing once the in-flight
// pool is warm, for block and fine reads alike.
func TestDriverSubmitAllocFree(t *testing.T) {
	dev := &sinkDevice{service: 5 * sim.Microsecond}
	d := NewDriverQueues(dev, 4, 64, DefaultCosts())
	buf := make([]byte, 4096)
	lbas := []uint64{3, 9}
	for _, tc := range []struct {
		name string
		cmd  Command
	}{
		{"block read", Command{Op: OpRead, LBA: 7, Pages: 1, Data: buf}},
		{"fine read", Command{Op: OpFineRead, FineLBAs: lbas}},
	} {
		now := sim.Time(0)
		submit := func() {
			comp, err := d.Submit(now, tc.cmd)
			if err != nil || !comp.Ok() {
				t.Fatalf("%s: %+v, %v", tc.name, comp, err)
			}
			now = comp.Done
		}
		submit() // warm the in-flight pool
		if allocs := testing.AllocsPerRun(500, submit); allocs != 0 {
			t.Errorf("%s: Driver.Submit %v allocs/op, want 0", tc.name, allocs)
		}
	}
	if dev.ops[OpRead] == 0 || dev.ops[OpFineRead] == 0 {
		t.Fatalf("device saw %v", dev.ops)
	}
}

// BenchmarkDriverSubmit measures one synchronous command round trip over
// a device that costs nothing on the host.
func BenchmarkDriverSubmit(b *testing.B) {
	d := NewDriverQueues(&sinkDevice{service: 5 * sim.Microsecond}, 4, 64, DefaultCosts())
	cmd := Command{Op: OpRead, LBA: 7, Pages: 1, Data: make([]byte, 4096)}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := d.Submit(now, cmd)
		if err != nil {
			b.Fatal(err)
		}
		now = comp.Done
	}
}
