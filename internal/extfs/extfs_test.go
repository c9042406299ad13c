package extfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"pipette/internal/ssd"
)

func testFS(t testing.TB) *FS {
	t.Helper()
	cfg := ssd.DefaultConfig()
	cfg.NAND.Channels = 2
	cfg.NAND.WaysPerChannel = 2
	cfg.NAND.PlanesPerDie = 1
	cfg.NAND.BlocksPerPlane = 32
	cfg.NAND.PagesPerBlock = 32
	ctrl, err := ssd.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(ctrl)
}

func TestCreateLookupRemove(t *testing.T) {
	fs := testFS(t)
	ino, err := fs.Create("emb.tbl", 100000, CreateOpts{Preload: true})
	if err != nil {
		t.Fatal(err)
	}
	if ino.Ino < 2 || ino.Size != 100000 {
		t.Fatalf("inode %+v", ino)
	}
	if err := ino.CheckExtents(fs.PageSize()); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup("emb.tbl")
	if err != nil || got != ino {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	byID, err := fs.InodeByID(ino.Ino)
	if err != nil || byID != ino {
		t.Fatal("InodeByID failed")
	}
	if _, err := fs.Create("emb.tbl", 10, CreateOpts{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if err := fs.Remove("emb.tbl"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("emb.tbl"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-remove lookup err = %v", err)
	}
	if err := fs.Remove("emb.tbl"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	fs := testFS(t)
	if _, err := fs.Create("", 10, CreateOpts{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("empty name err = %v", err)
	}
	if _, err := fs.Create("x", -1, CreateOpts{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("negative size err = %v", err)
	}
	if _, err := fs.Create("huge", 1<<50, CreateOpts{}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize err = %v", err)
	}
}

func TestPageToLBAContiguous(t *testing.T) {
	fs := testFS(t)
	ino, err := fs.Create("a", 10*4096, CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ino.PageToLBA(0)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 10; p++ {
		lba, err := ino.PageToLBA(p)
		if err != nil {
			t.Fatal(err)
		}
		if lba != base+p {
			t.Fatalf("page %d -> %d, want %d", p, lba, base+p)
		}
	}
	if _, err := ino.PageToLBA(10); !errors.Is(err, ErrBadRange) {
		t.Fatalf("out-of-file page err = %v", err)
	}
}

func TestFragmentedExtents(t *testing.T) {
	fs := testFS(t)
	ino, err := fs.Create("frag", 10*4096, CreateOpts{ExtentPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Extents) != 4 { // 3+3+3+1
		t.Fatalf("extents = %d, want 4", len(ino.Extents))
	}
	if err := ino.CheckExtents(fs.PageSize()); err != nil {
		t.Fatal(err)
	}
	// Pages in different extents land on non-adjacent LBAs.
	l2, _ := ino.PageToLBA(2)
	l3, _ := ino.PageToLBA(3)
	if l3 == l2+1 {
		t.Fatal("fragmentation did not skip LBAs")
	}
	// Every page still resolves.
	seen := map[uint64]bool{}
	for p := uint64(0); p < 10; p++ {
		lba, err := ino.PageToLBA(p)
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if seen[lba] {
			t.Fatalf("page %d shares LBA %d", p, lba)
		}
		seen[lba] = true
	}
}

func TestExtractLBAs(t *testing.T) {
	fs := testFS(t)
	ino, err := fs.Create("x", 16*4096, CreateOpts{ExtentPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 128 B inside one page.
	lbas, err := ino.ExtractLBAs(5000, 128, fs.PageSize())
	if err != nil || len(lbas) != 1 {
		t.Fatalf("single-page extract = %v, %v", lbas, err)
	}
	want, _ := ino.PageToLBA(1)
	if lbas[0] != want {
		t.Fatalf("extract lba = %d, want %d", lbas[0], want)
	}
	// Range crossing a page boundary: two pages.
	lbas, err = ino.ExtractLBAs(4096*2-10, 20, fs.PageSize())
	if err != nil || len(lbas) != 2 {
		t.Fatalf("cross-page extract = %v, %v", lbas, err)
	}
	// Range crossing an extent boundary.
	lbas, err = ino.ExtractLBAs(4096*4-10, 20, fs.PageSize())
	if err != nil || len(lbas) != 2 {
		t.Fatalf("cross-extent extract = %v, %v", lbas, err)
	}
	if lbas[1] == lbas[0]+1 {
		t.Fatal("cross-extent LBAs unexpectedly adjacent")
	}
	// Bad ranges.
	for _, tc := range []struct {
		off int64
		n   int
	}{{-1, 10}, {0, 0}, {16 * 4096, 1}, {16*4096 - 5, 10}} {
		if _, err := ino.ExtractLBAs(tc.off, tc.n, fs.PageSize()); !errors.Is(err, ErrBadRange) {
			t.Errorf("ExtractLBAs(%d,%d) err = %v", tc.off, tc.n, err)
		}
	}
}

func TestPeekMatchesPreloadedContent(t *testing.T) {
	fs := testFS(t)
	ino, err := fs.Create("data", 8*4096, CreateOpts{Preload: true, ExtentPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Peek across a page boundary and compare against per-page peeks.
	buf := make([]byte, 100)
	if err := fs.Peek(ino, 4096-50, buf); err != nil {
		t.Fatal(err)
	}
	left := make([]byte, 50)
	right := make([]byte, 50)
	if err := fs.Peek(ino, 4096-50, left); err != nil {
		t.Fatal(err)
	}
	if err := fs.Peek(ino, 4096, right); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, append(left, right...)) {
		t.Fatal("cross-page peek inconsistent")
	}
	if err := fs.Peek(ino, 8*4096-10, make([]byte, 20)); err == nil {
		t.Fatal("peek past EOF accepted")
	}
}

func TestFilesListing(t *testing.T) {
	fs := testFS(t)
	for _, n := range []string{"c", "a", "b"} {
		if _, err := fs.Create(n, 4096, CreateOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.Files()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("Files = %v", got)
	}
}

func TestNoSpaceAfterFill(t *testing.T) {
	fs := testFS(t)
	total := fs.Controller().LogicalPages()
	if _, err := fs.Create("big", int64(total)*4096, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("more", 4096, CreateOpts{}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

// Property: for random (off, n) in range, ExtractLBAs returns exactly the
// pages [off/ps .. (off+n-1)/ps] in order.
func TestExtractLBAsProperty(t *testing.T) {
	fs := testFS(t)
	ino, err := fs.Create("p", 64*4096, CreateOpts{ExtentPages: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(offRaw uint32, nRaw uint16) bool {
		off := int64(offRaw) % (64 * 4096)
		n := int(nRaw)%8192 + 1
		if off+int64(n) > 64*4096 {
			n = int(64*4096 - off)
		}
		lbas, err := ino.ExtractLBAs(off, n, fs.PageSize())
		if err != nil {
			return false
		}
		first := uint64(off) / 4096
		last := uint64(off+int64(n)-1) / 4096
		if uint64(len(lbas)) != last-first+1 {
			return false
		}
		for i, lba := range lbas {
			want, err := ino.PageToLBA(first + uint64(i))
			if err != nil || lba != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReleaseCoalescing removes three adjacently-allocated files out of
// order and asserts the free list fuses their runs into one — both the
// merge-with-next and merge-with-previous branches of releaseRun fire —
// then reuses the fused run as a single contiguous extent.
func TestReleaseCoalescing(t *testing.T) {
	fs := testFS(t)
	const pages = 8
	var base uint64
	for i, name := range []string{"a", "b", "c"} {
		ino, err := fs.Create(name, pages*4096, CreateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ino.Extents) != 1 {
			t.Fatalf("%s: %d extents, want 1", name, len(ino.Extents))
		}
		if i == 0 {
			base = ino.Extents[0].LBA
		} else if got := ino.Extents[0].LBA; got != base+uint64(i)*pages {
			t.Fatalf("%s at LBA %d, want adjacent %d", name, got, base+uint64(i)*pages)
		}
	}
	// Middle first (no neighbours), then left (merges with next), then
	// right (merges with previous).
	for _, name := range []string{"b", "a", "c"} {
		if err := fs.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if len(fs.free) != 1 || fs.free[0] != (freeRun{lba: base, pages: 3 * pages}) {
		t.Fatalf("free list = %+v, want one run [%d,+%d)", fs.free, base, 3*pages)
	}
	if fs.freePages != 3*pages {
		t.Fatalf("freePages = %d, want %d", fs.freePages, 3*pages)
	}
	ino, err := fs.Create("fused", 3*pages*4096, CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Extents) != 1 || ino.Extents[0].LBA != base {
		t.Fatalf("fused run not reused contiguously: %+v", ino.Extents)
	}
}

// TestCreateRollbackOnExhaustion drives Create past the capacity pre-check
// with fragmentation skips (each bump-frontier chunk burns one extra LBA),
// so allocation fails mid-file. The partial allocation must roll back: no
// namespace entry, and the released pages fully reusable afterwards.
func TestCreateRollbackOnExhaustion(t *testing.T) {
	fs := testFS(t)
	total := fs.FreeCapacityPages()
	if _, err := fs.Create("filler", int64(total-16)*4096, CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	// 16 pages free; 2-page extents + 1-page skips need ~24. The pre-check
	// (16 <= 16) passes, allocation exhausts mid-way.
	_, err := fs.Create("frag", 16*4096, CreateOpts{ExtentPages: 2})
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if _, err := fs.Lookup("frag"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed create left a namespace entry: %v", err)
	}
	// Whatever survives (free capacity minus the fragmentation holes) must
	// be allocatable again — the rollback put the partial extents back.
	rem := fs.FreeCapacityPages()
	if rem == 0 {
		t.Fatal("rollback returned nothing to the free list")
	}
	if _, err := fs.Create("after", int64(rem)*4096, CreateOpts{}); err != nil {
		t.Fatalf("re-allocating rolled-back pages: %v", err)
	}
	if got := fs.FreeCapacityPages(); got != 0 {
		t.Fatalf("FreeCapacityPages = %d after exact fill, want 0", got)
	}
}
