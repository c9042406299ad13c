package pagecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refPage is one resident page of the reference cache.
type refPage struct {
	key   Key
	dirty bool
	data  []byte // shadow copy of the dirty bytes
}

// refCache is an independent reference for the page cache: a slice LRU
// (most recent first) whose flush is a full walk from the LRU tail.
type refCache struct {
	capacity int
	lru      []refPage
	evicted  []string // "key dirty bytes" per evict-hook call

	hits, accesses, inserts, evicts uint64
}

func (r *refCache) find(k Key) int {
	for i, p := range r.lru {
		if p.key == k {
			return i
		}
	}
	return -1
}

func (r *refCache) toFront(i int) {
	p := r.lru[i]
	copy(r.lru[1:i+1], r.lru[:i])
	r.lru[0] = p
}

func (r *refCache) evictHook(p refPage) {
	r.evicted = append(r.evicted, fmt.Sprint(p.key, p.dirty, p.data))
}

func (r *refCache) drop(i int) refPage {
	p := r.lru[i]
	r.lru = append(r.lru[:i], r.lru[i+1:]...)
	r.evicts++
	return p
}

func (r *refCache) trim() {
	for len(r.lru) > r.capacity {
		r.evictHook(r.drop(len(r.lru) - 1))
	}
}

func (r *refCache) insert(k Key, dirty bool, data []byte) {
	p := refPage{key: k, dirty: dirty, data: append([]byte(nil), data...)}
	if r.capacity == 0 {
		r.evictHook(p)
		return
	}
	if i := r.find(k); i >= 0 {
		r.lru[i] = p
		r.toFront(i)
		return
	}
	r.lru = append([]refPage{p}, r.lru...)
	r.inserts++
	r.trim()
}

func (r *refCache) dirtyCount() int {
	n := 0
	for _, p := range r.lru {
		if p.dirty {
			n++
		}
	}
	return n
}

// flush walks the whole LRU from its tail.
func (r *refCache) flush(match func(Key) bool) []string {
	var out []string
	for i := len(r.lru) - 1; i >= 0; i-- {
		p := &r.lru[i]
		if !p.dirty || !match(p.key) {
			continue
		}
		out = append(out, fmt.Sprint(p.key, p.data))
		p.dirty, p.data = false, nil
	}
	return out
}

// checkLists verifies the cache's LRU against the reference and that the
// dirty list is exactly the LRU's dirty entries, in the same order.
func checkLists(t *testing.T, c *Cache, r *refCache) {
	t.Helper()
	var lru, dirty []Key
	for e := c.head.next; e != c.tail; e = e.next {
		lru = append(lru, e.key)
		if e.dirty {
			dirty = append(dirty, e.key)
		}
	}
	var want []Key
	for _, p := range r.lru {
		want = append(want, p.key)
	}
	if fmt.Sprint(lru) != fmt.Sprint(want) {
		t.Fatalf("LRU %v, reference %v", lru, want)
	}
	var list []Key
	for e := c.dirtyL.dnext; e != &c.dirtyL; e = e.dnext {
		list = append(list, e.key)
	}
	if fmt.Sprint(list) != fmt.Sprint(dirty) {
		t.Fatalf("dirty list %v, LRU dirty entries %v", list, dirty)
	}
}

// TestDirtyListDifferential drives the cache and the reference with the
// same seeded random operations. Every flush must visit the (key, bytes)
// sequence of a full LRU tail walk, and counters, evictions and list order
// must agree after every operation.
func TestDirtyListDifferential(t *testing.T) {
	const pageSize = 8
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(seed % 7) // seed 7 runs a zero-capacity cache
		if seed%6 == 0 {
			capacity = 0
		}
		t.Run(fmt.Sprintf("seed%d_cap%d", seed, capacity), func(t *testing.T) {
			ref := &refCache{capacity: capacity}
			var evicted []string
			checked := 0 // evict-hook calls already compared
			c, err := New(capacity, pageSize, func(k Key, dirty bool, data []byte) {
				evicted = append(evicted, fmt.Sprint(k, dirty, data))
			})
			if err != nil {
				t.Fatal(err)
			}
			randKey := func() Key { return Key{File: uint64(1 + rng.Intn(3)), Index: uint64(rng.Intn(10))} }
			randPage := func() []byte {
				b := make([]byte, pageSize)
				rng.Read(b)
				return b
			}
			matchers := []func(Key) bool{
				func(Key) bool { return true },
				func(k Key) bool { return k.File == 2 },
				func(k Key) bool { return k.Index%2 == 0 },
			}
			for op := 0; op < 3000; op++ {
				switch n := rng.Intn(100); {
				case n < 25:
					k := randKey()
					data, dirty, ok := c.Lookup(k)
					ref.accesses++
					i := ref.find(k)
					if ok != (i >= 0) {
						t.Fatalf("op %d: Lookup(%v) ok=%v, reference %v", op, k, ok, i >= 0)
					}
					if ok {
						ref.hits++
						if dirty != ref.lru[i].dirty || !bytes.Equal(data, ref.lru[i].data) {
							t.Fatalf("op %d: Lookup(%v) = %v,%v", op, k, data, dirty)
						}
						ref.toFront(i)
					}
				case n < 45:
					k, dirty := randKey(), rng.Intn(2) == 0
					var data []byte
					if dirty {
						data = randPage()
					}
					if err := c.Insert(k, dirty, data); err != nil {
						t.Fatal(err)
					}
					ref.insert(k, dirty, data)
				case n < 60:
					k, data := randKey(), randPage()
					ok, err := c.MarkDirty(k, data)
					i := ref.find(k)
					switch {
					case i < 0:
						if ok || err != nil {
							t.Fatalf("op %d: MarkDirty on absent %v = %v,%v", op, k, ok, err)
						}
					case ref.lru[i].dirty:
						if ok || err == nil {
							t.Fatalf("op %d: MarkDirty on dirty %v = %v,%v", op, k, ok, err)
						}
					default:
						if !ok || err != nil {
							t.Fatalf("op %d: MarkDirty(%v) = %v,%v", op, k, ok, err)
						}
						ref.lru[i].dirty, ref.lru[i].data = true, append([]byte(nil), data...)
						ref.toFront(i)
					}
				case n < 72:
					// Patch a dirty page in place, as the vfs write path does.
					k := randKey()
					buf := c.DirtyPage(k)
					i := ref.find(k)
					if (buf != nil) != (i >= 0 && ref.lru[i].dirty) {
						t.Fatalf("op %d: DirtyPage(%v) = %v", op, k, buf)
					}
					if buf != nil {
						at, b := rng.Intn(pageSize), byte(rng.Intn(256))
						buf[at] = b
						ref.lru[i].data[at] = b
						ref.toFront(i)
					}
				case n < 78:
					k := randKey()
					ok := c.Remove(k)
					i := ref.find(k)
					if ok != (i >= 0) {
						t.Fatalf("op %d: Remove(%v) = %v", op, k, ok)
					}
					if ok {
						ref.evictHook(ref.drop(i))
					}
				case n < 82:
					size := rng.Intn(8)
					if err := c.Resize(size); err != nil {
						t.Fatal(err)
					}
					ref.capacity = size
					ref.trim()
				case n < 86:
					ino := uint64(1 + rng.Intn(3))
					var released [][]byte
					dropped := c.DiscardFile(ino, func(b []byte) { released = append(released, b) })
					var wantReleased int
					kept := ref.lru[:0]
					for _, p := range ref.lru {
						if p.key.File != ino {
							kept = append(kept, p)
							continue
						}
						ref.evicts++
						if p.dirty {
							wantReleased++
						}
					}
					wantDropped := len(ref.lru) - len(kept)
					ref.lru = kept
					if dropped != wantDropped || len(released) != wantReleased {
						t.Fatalf("op %d: DiscardFile(%d) dropped %d released %d, want %d/%d",
							op, ino, dropped, len(released), wantDropped, wantReleased)
					}
				default:
					match := matchers[rng.Intn(len(matchers))]
					var got []string
					if err := c.FlushDirtySelect(match, func(k Key, data []byte) error {
						got = append(got, fmt.Sprint(k, data))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if want := ref.flush(match); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("op %d: flush visited %v, full LRU walk %v", op, got, want)
					}
				}
				if c.DirtyCount() != ref.dirtyCount() {
					t.Fatalf("op %d: DirtyCount %d, reference %d", op, c.DirtyCount(), ref.dirtyCount())
				}
				h, a, i, e := c.Stats()
				if h != ref.hits || a != ref.accesses || i != ref.inserts || e != ref.evicts {
					t.Fatalf("op %d: Stats %d/%d/%d/%d, reference %d/%d/%d/%d",
						op, h, a, i, e, ref.hits, ref.accesses, ref.inserts, ref.evicts)
				}
				if c.Len() != len(ref.lru) {
					t.Fatalf("op %d: Len %d, reference %d", op, c.Len(), len(ref.lru))
				}
				if fmt.Sprint(evicted[checked:]) != fmt.Sprint(ref.evicted[checked:]) {
					t.Fatalf("op %d: evictions %v, reference %v", op, evicted[checked:], ref.evicted[checked:])
				}
				checked = len(evicted)
				checkLists(t, c, ref)
			}
		})
	}
}

// TestFlushErrorKeepsRemainderDirty: a failing writeback stops the flush
// and leaves that page and every younger one dirty, in order.
func TestFlushErrorKeepsRemainderDirty(t *testing.T) {
	c := newCache(t, 8)
	for i := uint64(0); i < 4; i++ {
		if err := c.Insert(Key{1, i}, true, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	failOn := Key{1, 2}
	err := c.FlushDirty(func(k Key, data []byte) error {
		if k == failOn {
			return fmt.Errorf("writeback failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("flush error not returned")
	}
	if c.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d after failed flush, want 2", c.DirtyCount())
	}
	var left []Key
	if err := c.FlushDirty(func(k Key, data []byte) error {
		left = append(left, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(left) != fmt.Sprint([]Key{{1, 2}, {1, 3}}) {
		t.Fatalf("second flush visited %v", left)
	}
}

// BenchmarkFlushDirtySelect: fsync of one file in a cache of 16k resident
// pages, ~1% of them dirty. The flush walks only the dirty pages.
func BenchmarkFlushDirtySelect(b *testing.B) {
	const pages = 16 << 10
	c, err := New(pages, 4096, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		if err := c.Insert(Key{1, i}, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	bufs := make([][]byte, pages/100)
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
	}
	match := func(k Key) bool { return k.File == 1 }
	flush := func(Key, []byte) error { return nil }
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i, buf := range bufs {
			if _, err := c.MarkDirty(Key{1, uint64(i * 100)}, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := c.FlushDirtySelect(match, flush); err != nil {
			b.Fatal(err)
		}
	}
}
