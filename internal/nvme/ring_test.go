package nvme

import (
	"errors"
	"math"
	"testing"

	"pipette/internal/sim"
)

// The ring indices are free-running uint32 counters; Len is tail-head in
// modular arithmetic and slots index as counter % size. Both must keep
// working when the counters overflow uint32 — seed head and tail just
// below the wrap and run full fill/drain cycles across it.
func TestSQHeadTailAcrossUint32Wrap(t *testing.T) {
	q := NewSQ(4) // capacity 3
	q.head = math.MaxUint32 - 2
	q.tail = q.head
	var n uint16
	for cycle := 0; cycle < 4; cycle++ { // counters cross MaxUint32 mid-test
		if q.Len() != 0 {
			t.Fatalf("cycle %d: Len = %d, want 0 (head=%d tail=%d)", cycle, q.Len(), q.head, q.tail)
		}
		for i := 0; i < q.Cap(); i++ {
			if err := q.Push(Command{ID: n}); err != nil {
				t.Fatalf("push %d across wrap: %v", n, err)
			}
			n++
			if q.Len() != i+1 {
				t.Fatalf("Len = %d, want %d", q.Len(), i+1)
			}
		}
		if err := q.Push(Command{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("full push across wrap: err = %v, want ErrQueueFull", err)
		}
		for i := 0; i < q.Cap(); i++ {
			c, err := q.Pop()
			if err != nil {
				t.Fatalf("pop across wrap: %v", err)
			}
			if want := n - uint16(q.Cap()) + uint16(i); c.ID != want {
				t.Fatalf("FIFO across wrap: got %d, want %d", c.ID, want)
			}
		}
		if _, err := q.Pop(); !errors.Is(err, ErrQueueEmpty) {
			t.Fatalf("empty pop across wrap: err = %v, want ErrQueueEmpty", err)
		}
	}
	if q.head != q.tail || q.head >= math.MaxUint32-2 {
		t.Fatalf("counters did not cross the wrap: head=%d tail=%d", q.head, q.tail)
	}
}

func TestCQHeadTailAcrossUint32Wrap(t *testing.T) {
	q := NewCQ(3) // capacity 2
	q.head = math.MaxUint32
	q.tail = q.head
	var n uint16
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < q.Cap(); i++ {
			if err := q.Push(Completion{ID: n}); err != nil {
				t.Fatalf("push %d across wrap: %v", n, err)
			}
			n++
		}
		if err := q.Push(Completion{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("full push across wrap: err = %v, want ErrQueueFull", err)
		}
		for i := 0; i < q.Cap(); i++ {
			c, err := q.Pop()
			if err != nil {
				t.Fatalf("pop across wrap: %v", err)
			}
			if want := n - uint16(q.Cap()) + uint16(i); c.ID != want {
				t.Fatalf("FIFO across wrap: got %d, want %d", c.ID, want)
			}
		}
		if _, err := q.Pop(); !errors.Is(err, ErrQueueEmpty) {
			t.Fatalf("empty pop across wrap: err = %v, want ErrQueueEmpty", err)
		}
	}
}

// A full ring rejects Submit with ErrQueueFull, consuming neither a
// command ID nor a round-robin or stats slot; draining the engine frees
// the ring and submission resumes with the next sequential ID.
func TestMultiQueueBackpressureAtCapacity(t *testing.T) {
	dev := &echoDevice{service: 5 * sim.Microsecond}
	eng := sim.NewEngine()
	mq := NewMultiQueue(dev, 1, 4, DefaultCosts(), eng, nil) // one pair, capacity 3

	var got []Completion
	cb := func(c Completion) { got = append(got, c) }
	for i := 0; i < mq.Depth(); i++ {
		if err := mq.Submit(0, Command{Op: OpRead, Pages: 1}, cb); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if mq.InFlight() != mq.Depth() {
		t.Fatalf("InFlight = %d, want %d", mq.InFlight(), mq.Depth())
	}
	// The ring is at capacity: the next submit must bounce and must not
	// perturb transport state.
	for i := 0; i < 2; i++ {
		if err := mq.Submit(0, Command{Op: OpRead, Pages: 1}, cb); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit at capacity: err = %v, want ErrQueueFull", err)
		}
	}
	if sub, done := mq.Stats(); sub != uint64(mq.Depth()) || done != 0 {
		t.Fatalf("stats after rejects = %d/%d, want %d/0", sub, done, mq.Depth())
	}

	eng.Run()
	if err := mq.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if mq.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", mq.InFlight())
	}
	if len(got) != mq.Depth() {
		t.Fatalf("completions = %d, want %d", len(got), mq.Depth())
	}
	for i, c := range got {
		if c.ID != uint16(i) {
			t.Fatalf("completion %d has ID %d; a rejected submit consumed an ID", i, c.ID)
		}
	}

	// The drained ring accepts again, with the ID sequence unbroken.
	if err := mq.Submit(got[len(got)-1].Done, Command{Op: OpRead, Pages: 1}, cb); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	eng.Run()
	if want := uint16(mq.Depth()); got[len(got)-1].ID != want {
		t.Fatalf("post-drain ID = %d, want %d", got[len(got)-1].ID, want)
	}
}

// Backpressure is per pair: with two pairs of capacity 1, the third
// round-robin submit lands back on the still-full first pair and bounces,
// even though it was preceded by a success on the second.
func TestMultiQueueBackpressurePerPair(t *testing.T) {
	dev := &echoDevice{service: sim.Microsecond}
	eng := sim.NewEngine()
	mq := NewMultiQueue(dev, 2, 2, Costs{}, eng, nil) // two pairs, capacity 1 each

	cb := func(Completion) {}
	if err := mq.Submit(0, Command{Op: OpFlush}, cb); err != nil {
		t.Fatalf("pair 0: %v", err)
	}
	if err := mq.Submit(0, Command{Op: OpFlush}, cb); err != nil {
		t.Fatalf("pair 1: %v", err)
	}
	if err := mq.Submit(0, Command{Op: OpFlush}, cb); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("wrapped to full pair 0: err = %v, want ErrQueueFull", err)
	}
	eng.Run()
	if mq.InFlight() != 0 {
		t.Fatalf("InFlight = %d, want 0", mq.InFlight())
	}
}
