package ftl

import (
	"testing"

	"pipette/internal/nand"
	"pipette/internal/sim"
)

// wearStack builds an FTL with wear leveling configured.
func wearStack(t *testing.T, delta int) (*nand.Array, *FTL) {
	t.Helper()
	cfg := nand.DefaultConfig()
	cfg.Channels = 1
	cfg.WaysPerChannel = 1
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 12
	cfg.PagesPerBlock = 8
	arr, err := nand.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := DefaultConfig()
	fcfg.WearDelta = delta
	f, err := New(arr, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return arr, f
}

// churn drives hot rewrites over a small LBA range to build up wear.
func churn(t *testing.T, f *FTL, lbas, writes int, now sim.Time) sim.Time {
	t.Helper()
	data := make([]byte, f.PageSize())
	for i := 0; i < writes; i++ {
		done, err := f.Write(now, LBA(i%lbas), data)
		if err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		now = done
	}
	return now
}

func TestWearLevelDisabled(t *testing.T) {
	_, f := wearStack(t, 0)
	now := churn(t, f, 4, 500, 0)
	moves, _, err := f.WearLevelTick(now)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 || f.Stats().WearMoves != 0 {
		t.Fatalf("wear leveling ran while disabled: moves=%d", moves)
	}
}

func TestWearLevelMovesColdData(t *testing.T) {
	_, f := wearStack(t, 3)
	// Cold data: fill a region once and never touch it again.
	coldLBAs := 16
	data := make([]byte, f.PageSize())
	var now sim.Time
	for i := 0; i < coldLBAs; i++ {
		done, err := f.Write(now, LBA(40+i), data)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Shadow the cold content for post-move verification.
	want := make(map[LBA]byte)
	for i := 0; i < coldLBAs; i++ {
		buf, _, err := f.Read(now, LBA(40+i))
		if err != nil {
			t.Fatal(err)
		}
		want[LBA(40+i)] = buf[0]
	}
	// Hot churn elsewhere drives erase counts up.
	now = churn(t, f, 4, 800, now)
	if f.WearSpread() < 3 {
		t.Skipf("churn produced spread %d < delta; cannot exercise", f.WearSpread())
	}
	spreadBefore := f.WearSpread()
	moves, done, err := f.WearLevelTick(now)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatalf("no wear-level moves despite spread %d", spreadBefore)
	}
	if done <= now {
		t.Fatal("wear leveling consumed no time")
	}
	if f.Stats().WearMoves == 0 {
		t.Fatal("WearMoves not counted")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after wear move: %v", err)
	}
	// Cold data must read back unchanged from its new location.
	for lba, b := range want {
		got, _, err := f.Read(done, lba)
		if err != nil {
			t.Fatalf("read %d after move: %v", lba, err)
		}
		if got[0] != b {
			t.Fatalf("lba %d corrupted by wear move", lba)
		}
	}
}

func TestWearLevelBoundsSpread(t *testing.T) {
	_, f := wearStack(t, 3)
	data := make([]byte, f.PageSize())
	var now sim.Time
	// Cold region.
	for i := 0; i < 16; i++ {
		done, err := f.Write(now, LBA(40+i), data)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Interleave churn with periodic wear-level ticks, as firmware would.
	for round := 0; round < 30; round++ {
		now = churn(t, f, 4, 100, now)
		_, done, err := f.WearLevelTick(now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	withWL := f.WearSpread()

	// Same workload without wear leveling for contrast.
	_, g := wearStack(t, 0)
	var gnow sim.Time
	for i := 0; i < 16; i++ {
		done, err := g.Write(gnow, LBA(40+i), data)
		if err != nil {
			t.Fatal(err)
		}
		gnow = done
	}
	gnow = churn(t, g, 4, 3000, gnow)
	withoutWL := g.WearSpread()

	if withWL >= withoutWL {
		t.Fatalf("wear leveling did not narrow the spread: %d vs %d", withWL, withoutWL)
	}
}
