package vfs

import (
	"bytes"
	"io"
	"testing"

	"pipette/internal/blockdev"
	"pipette/internal/extfs"
	"pipette/internal/nvme"
	"pipette/internal/pagecache"
	"pipette/internal/sim"
	"pipette/internal/ssd"
)

func testVFS(t testing.TB, cachePages int) *VFS {
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
	drv := nvme.NewDriverQueues(ctrl, 1, 64, nvme.DefaultCosts(), nil)
	blk, err := blockdev.New(drv, ctrl.PageSize(), blockdev.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := extfs.New(ctrl)
	vcfg := DefaultConfig()
	vcfg.PageCachePages = cachePages
	v, err := New(fs, blk, vcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func createPreloaded(t testing.TB, v *VFS, name string, size int64) *File {
	t.Helper()
	f, err := v.Create(name, size, extfs.CreateOpts{Preload: true}, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func oracle(t testing.TB, v *VFS, f *File, off int64, n int) []byte {
	t.Helper()
	want := make([]byte, n)
	if err := v.FS().Peek(f.Inode(), off, want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestReadCorrectness(t *testing.T) {
	v := testVFS(t, 128)
	f := createPreloaded(t, v, "data", 1<<20)
	for _, tc := range []struct {
		off int64
		n   int
	}{
		{0, 128}, {4090, 20} /* page boundary */, {100000, 4096}, {1<<20 - 10, 10},
	} {
		buf := make([]byte, tc.n)
		n, done, err := f.ReadAt(0, buf, tc.off)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d,%d): %v", tc.off, tc.n, err)
		}
		if n != tc.n {
			t.Fatalf("ReadAt(%d,%d) = %d bytes", tc.off, tc.n, n)
		}
		if !bytes.Equal(buf, oracle(t, v, f, tc.off, tc.n)) {
			t.Fatalf("ReadAt(%d,%d) content mismatch", tc.off, tc.n)
		}
		if done <= 0 {
			t.Fatal("read consumed no time")
		}
	}
}

func TestReadEOF(t *testing.T) {
	v := testVFS(t, 16)
	f := createPreloaded(t, v, "small", 1000)
	buf := make([]byte, 100)
	// Past the end.
	if n, _, err := f.ReadAt(0, buf, 2000); err != io.EOF || n != 0 {
		t.Fatalf("past-end read = %d, %v", n, err)
	}
	// Straddling the end.
	n, _, err := f.ReadAt(0, buf, 950)
	if err != io.EOF || n != 50 {
		t.Fatalf("straddling read = %d, %v", n, err)
	}
	// Negative offset.
	if _, _, err := f.ReadAt(0, buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestCacheHitFasterAndNoTraffic(t *testing.T) {
	v := testVFS(t, 128)
	f := createPreloaded(t, v, "data", 1<<20)
	buf := make([]byte, 128)
	_, missDone, err := f.ReadAt(0, buf, 8192)
	if err != nil {
		t.Fatal(err)
	}
	missTraffic := v.IO().BytesTransferred
	if missTraffic == 0 {
		t.Fatal("miss caused no traffic")
	}
	// Same page again: hit, no new traffic, much faster.
	_, hitDone, err := f.ReadAt(missDone, buf, 8192+256)
	if err != nil {
		t.Fatal(err)
	}
	if v.IO().BytesTransferred != missTraffic {
		t.Fatal("hit caused traffic")
	}
	if hitLat := hitDone - missDone; hitLat >= missDone {
		t.Fatalf("hit latency %v not faster than miss %v", hitLat, missDone)
	}
	if !bytes.Equal(buf, oracle(t, v, f, 8192+256, 128)) {
		t.Fatal("hit served wrong bytes")
	}
	hits, accesses, _, _ := v.PageCache().Stats()
	if hits != 1 || accesses != 2 {
		t.Fatalf("cache stats %d/%d", hits, accesses)
	}
}

func TestRandomReadFetchesInitialWindow(t *testing.T) {
	v := testVFS(t, 1024)
	f := createPreloaded(t, v, "data", 4<<20)
	buf := make([]byte, 128)
	// Scattered offsets: each miss opens the 4-page initial window
	// (Linux 5.4 behaviour) — 16 KiB of traffic per 128 B read.
	offsets := []int64{0, 2 << 20, 40960, 3 << 20, 81920}
	for _, off := range offsets {
		if _, _, err := f.ReadAt(0, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.IO().BytesTransferred; got != uint64(len(offsets)*4*4096) {
		t.Fatalf("random reads moved %d bytes, want %d (4 pages each)", got, len(offsets)*4*4096)
	}
}

func TestSequentialReadahead(t *testing.T) {
	v := testVFS(t, 1024)
	f := createPreloaded(t, v, "data", 4<<20)
	buf := make([]byte, 4096)
	var now sim.Time
	// Sequential full-page reads: read-ahead should batch device fetches so
	// commands << pages.
	for i := int64(0); i < 64; i++ {
		_, done, err := f.ReadAt(now, buf, i*4096)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	io := v.IO()
	if io.BlockReads < 64 {
		t.Fatalf("pages fetched %d < 64 — sequential stream must prefetch at least demanded", io.BlockReads)
	}
	hits, accesses, _, _ := v.PageCache().Stats()
	if hits == 0 {
		t.Fatal("read-ahead produced no page-cache hits on a sequential stream")
	}
	_ = accesses
}

func TestWriteReadBack(t *testing.T) {
	v := testVFS(t, 128)
	f := createPreloaded(t, v, "data", 1<<20)
	payload := []byte("pipette fine grained write")
	const off = 12345
	if _, _, err := f.WriteAt(0, payload, off); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, _, err := f.ReadAt(0, buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("read after write mismatch")
	}
	// Neighbouring bytes preserved by RMW.
	pre := make([]byte, 10)
	if _, _, err := f.ReadAt(0, pre, off-10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, oracle(t, v, f, off-10, 10)) {
		t.Fatal("RMW clobbered neighbouring bytes")
	}
}

func TestWritePermissionAndBounds(t *testing.T) {
	v := testVFS(t, 16)
	ro, err := v.Create("ro", 4096, extfs.CreateOpts{Preload: true}, ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ro.WriteAt(0, []byte("x"), 0); err == nil {
		t.Fatal("write to read-only fd accepted")
	}
	rw := createPreloaded(t, v, "rw", 4096)
	if _, _, err := rw.WriteAt(0, []byte("x"), 4096); err == nil {
		t.Fatal("write beyond size accepted")
	}
	if _, _, err := rw.WriteAt(0, []byte("x"), -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if n, _, err := rw.WriteAt(0, nil, 0); n != 0 || err != nil {
		t.Fatalf("empty write = %d, %v", n, err)
	}
}

func TestSyncPersists(t *testing.T) {
	v := testVFS(t, 128)
	f := createPreloaded(t, v, "data", 1<<20)
	payload := bytes.Repeat([]byte{0xaa}, 4096)
	if _, _, err := f.WriteAt(0, payload, 40960); err != nil {
		t.Fatal(err)
	}
	if v.PageCache().DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", v.PageCache().DirtyCount())
	}
	done, err := f.Sync(0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("sync consumed no time")
	}
	if v.PageCache().DirtyCount() != 0 {
		t.Fatal("dirty pages remain after sync")
	}
	if v.IO().BytesWritten != 4096 {
		t.Fatalf("BytesWritten = %d", v.IO().BytesWritten)
	}
	// Device now holds the new content: the oracle sees it.
	if !bytes.Equal(oracle(t, v, f, 40960, 4096), payload) {
		t.Fatal("device content not updated by sync")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	v := testVFS(t, 2) // tiny cache forces eviction
	f := createPreloaded(t, v, "data", 1<<20)
	payload := bytes.Repeat([]byte{0x77}, 4096)
	if _, _, err := f.WriteAt(0, payload, 0); err != nil {
		t.Fatal(err)
	}
	// Fill the cache with other pages to evict the dirty one.
	buf := make([]byte, 128)
	var now sim.Time
	for i := 1; i <= 4; i++ {
		_, done, err := f.ReadAt(now, buf, int64(i)*8192)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if v.IO().BytesWritten != 4096 {
		t.Fatalf("evicted dirty page not written back: BytesWritten = %d", v.IO().BytesWritten)
	}
	if !bytes.Equal(oracle(t, v, f, 0, 4096), payload) {
		t.Fatal("writeback content wrong")
	}
}

// stubRouter records calls and optionally serves reads.
type stubRouter struct {
	serve      bool
	fineCalls  int
	writeCalls int
	lastOff    int64
	lastLen    int
}

func (s *stubRouter) TryFineRead(now sim.Time, f *File, off int64, buf []byte) (sim.Time, bool, error) {
	s.fineCalls++
	if !s.serve {
		return now, false, nil
	}
	if err := f.v.FS().Peek(f.Inode(), off, buf); err != nil {
		return now, false, err
	}
	return now + 2*sim.Microsecond, true, nil
}

func (s *stubRouter) OnWrite(ino uint64, off int64, n int) {
	s.writeCalls++
	s.lastOff, s.lastLen = off, n
}

func TestFineRouterHandlesMiss(t *testing.T) {
	v := testVFS(t, 128)
	f, err := v.Create("data", 1<<20, extfs.CreateOpts{Preload: true}, ReadWrite|FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRouter{serve: true}
	v.SetRouter(r)

	buf := make([]byte, 128)
	if _, _, err := f.ReadAt(0, buf, 5000); err != nil {
		t.Fatal(err)
	}
	if r.fineCalls != 1 {
		t.Fatalf("router called %d times", r.fineCalls)
	}
	if !bytes.Equal(buf, oracle(t, v, f, 5000, 128)) {
		t.Fatal("router-served read wrong")
	}
	// Router-served reads must not promote pages.
	if v.PageCache().Len() != 0 {
		t.Fatal("fine read polluted the page cache")
	}
	// No block traffic either (router used the oracle here).
	if v.IO().BytesTransferred != 0 {
		t.Fatal("fine read counted block traffic")
	}
}

func TestFineRouterDeclineFallsBack(t *testing.T) {
	v := testVFS(t, 128)
	f, err := v.Create("data", 1<<20, extfs.CreateOpts{Preload: true}, FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRouter{serve: false}
	v.SetRouter(r)
	buf := make([]byte, 4096)
	if _, _, err := f.ReadAt(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if r.fineCalls != 1 {
		t.Fatalf("router calls = %d", r.fineCalls)
	}
	if v.IO().BytesTransferred == 0 {
		t.Fatal("declined read did not take the block path")
	}
	if !bytes.Equal(buf, oracle(t, v, f, 0, 4096)) {
		t.Fatal("fallback read wrong")
	}
}

func TestFineReadServedByPageCacheFirst(t *testing.T) {
	v := testVFS(t, 128)
	f, err := v.Create("data", 1<<20, extfs.CreateOpts{Preload: true}, ReadWrite|FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRouter{serve: true}
	v.SetRouter(r)
	// Promote the page via a block read on a non-fine handle.
	plain, err := v.Open("data", ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4096)
	if _, _, err := plain.ReadAt(0, big, 8192); err != nil {
		t.Fatal(err)
	}
	// Fine read of the same page: page cache serves it, router not called.
	buf := make([]byte, 128)
	if _, _, err := f.ReadAt(0, buf, 8192+100); err != nil {
		t.Fatal(err)
	}
	if r.fineCalls != 0 {
		t.Fatal("router called despite page-cache hit")
	}
	if !bytes.Equal(buf, oracle(t, v, f, 8192+100, 128)) {
		t.Fatal("page-cache-served fine read wrong")
	}
}

func TestWriteNotifiesRouter(t *testing.T) {
	v := testVFS(t, 128)
	f := createPreloaded(t, v, "data", 1<<20)
	r := &stubRouter{}
	v.SetRouter(r)
	if _, _, err := f.WriteAt(0, []byte("update"), 777); err != nil {
		t.Fatal(err)
	}
	if r.writeCalls != 1 || r.lastOff != 777 || r.lastLen != 6 {
		t.Fatalf("OnWrite calls=%d off=%d len=%d", r.writeCalls, r.lastOff, r.lastLen)
	}
}

func TestDirtyPageServesFineHit(t *testing.T) {
	// After a write, a fine read of the same page must see the NEW data via
	// the page cache (the paper's consistency argument, §3.1.3).
	v := testVFS(t, 128)
	f, err := v.Create("data", 1<<20, extfs.CreateOpts{Preload: true}, ReadWrite|FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRouter(&stubRouter{serve: true})
	payload := []byte("fresh-bytes")
	if _, _, err := f.WriteAt(0, payload, 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, _, err := f.ReadAt(0, buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("fine read after write got %q, want %q", buf, payload)
	}
}

func TestPartialDirtyRangeSkipsFineRouter(t *testing.T) {
	// A range whose pages are partly flushed-and-evicted, partly dirty
	// resident must not reach the fine router: the fine command reads flash
	// below the cache, and a dirty page's latest bytes exist only in host
	// memory. The block path merges cache and device per page.
	v := testVFS(t, 1) // capacity 1: dirtying the second page evicts the first
	f, err := v.Create("data", 1<<20, extfs.CreateOpts{Preload: true}, ReadWrite|FineGrained)
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRouter{serve: true}
	v.SetRouter(r)
	payload := bytes.Repeat([]byte{0x5a}, 200)
	const off = 10*4096 + 4000 // spans the page 10/11 boundary
	if _, _, err := f.WriteAt(0, payload, off); err != nil {
		t.Fatal(err)
	}
	if !v.cache.ContainsDirty(pagecache.Key{File: f.inode.Ino, Index: 11}) {
		t.Fatal("setup: page 11 not dirty resident")
	}
	if v.cache.Contains(pagecache.Key{File: f.inode.Ino, Index: 10}) {
		t.Fatal("setup: page 10 still resident")
	}
	buf := make([]byte, len(payload))
	if _, _, err := f.ReadAt(0, buf, off); err != nil {
		t.Fatal(err)
	}
	if r.fineCalls != 0 {
		t.Fatal("fine router consulted for a partially dirty range")
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("partially dirty range read wrong bytes")
	}
}

func TestReadFull(t *testing.T) {
	v := testVFS(t, 16)
	f := createPreloaded(t, v, "data", 1000)
	buf := make([]byte, 100)
	if _, err := f.ReadFull(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFull(0, buf, 950); err == nil {
		t.Fatal("short ReadFull did not error")
	}
}

func TestSyncAll(t *testing.T) {
	v := testVFS(t, 128)
	f1 := createPreloaded(t, v, "a", 8192)
	f2 := createPreloaded(t, v, "b", 8192)
	for _, f := range []*File{f1, f2} {
		if _, _, err := f.WriteAt(0, bytes.Repeat([]byte{1}, 4096), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.SyncAll(0); err != nil {
		t.Fatal(err)
	}
	if v.PageCache().DirtyCount() != 0 {
		t.Fatal("SyncAll left dirty pages")
	}
	if v.IO().BytesWritten != 8192 {
		t.Fatalf("BytesWritten = %d", v.IO().BytesWritten)
	}
}
