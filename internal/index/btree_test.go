package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pipette/internal/sim"
)

// memFile and memBackend keep index files in host memory with no timing,
// so these tests and benchmarks see the B+-tree's own cost and nothing of
// the storage stack below it.
type memFile struct{ b []byte }

func (f *memFile) ReadAt(now sim.Time, buf []byte, off int64) (int, sim.Time, error) {
	if off >= int64(len(f.b)) {
		return 0, now, io.EOF
	}
	return copy(buf, f.b[off:]), now, nil
}

func (f *memFile) WriteAt(now sim.Time, data []byte, off int64) (int, sim.Time, error) {
	if off+int64(len(data)) > int64(len(f.b)) {
		return 0, now, io.ErrShortWrite
	}
	return copy(f.b[off:], data), now, nil
}

func (f *memFile) Sync(now sim.Time) (sim.Time, error) { return now, nil }
func (f *memFile) Close() error                        { return nil }
func (f *memFile) Size() int64                         { return int64(len(f.b)) }

type memBackend map[string]*memFile

func (m memBackend) Create(name string, size int64) (File, error) {
	f := &memFile{b: make([]byte, size)}
	m[name] = f
	return f, nil
}

func (m memBackend) open(name string) (File, error) {
	if f, ok := m[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("no file %s", name)
}

func (m memBackend) OpenReader(name string, fine bool) (File, error) { return m.open(name) }
func (m memBackend) OpenWriter(name string) (File, error)            { return m.open(name) }
func (m memBackend) Remove(name string) error                        { delete(m, name); return nil }
func (m memBackend) PageSize() int                                   { return 4096 }

func (m memBackend) Files() []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newMemTree builds a B+-tree over a fresh memBackend and inserts keys
// 0..n-1, each with locFor(i).
func newMemTree(tb testing.TB, nodeBytes, n int) *btreeEngine {
	tb.Helper()
	cfg := Config{Kind: BTree, NodeBytes: nodeBytes, ArenaNodes: 64}
	cfg.setDefaults()
	t, err := newBTree(memBackend{}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := t.Insert(0, memKey(i), locFor(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

func memKey(i int) string { return fmt.Sprintf("k-%06d", i) }

func locFor(i int) Loc {
	return Loc{Seg: uint32(i%7 + 1), Off: int64(i) * 64, ValLen: uint32(i%100 + 1)}
}

// cellBytes returns node id's bytes as stored in its arena file.
func (t *btreeEngine) cellBytes(id uint32) []byte {
	ar, off := t.place(id)
	return ar.w.(*memFile).b[off : off+int64(t.cfg.NodeBytes)]
}

// TestBTreeZeroAlloc pins the decode-free node path: lookups (hit and miss)
// and overwrites on a warmed multi-level tree allocate nothing.
func TestBTreeZeroAlloc(t *testing.T) {
	const n = 2000
	tr := newMemTree(t, 256, n)
	if tr.height < 3 {
		t.Fatalf("height %d, want a multi-level tree", tr.height)
	}
	hit, miss := memKey(n/3), memKey(n+7)
	var err error
	cases := []struct {
		name string
		op   func()
	}{
		{"lookup-hit", func() { _, _, _, err = tr.Lookup(0, hit) }},
		{"lookup-miss", func() { _, _, _, err = tr.Lookup(0, miss) }},
		{"overwrite", func() { _, err = tr.Insert(0, hit, Loc{Seg: 9, Off: 4096, ValLen: 200}) }},
	}
	for _, tc := range cases {
		tc.op() // warm
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 || err != nil {
			t.Errorf("%s: %v allocs/op (err %v), want 0", tc.name, allocs, err)
		}
	}
}

// TestBTreeChecksumRejectsCorruption damages one field of a leaf cell and
// of an interior cell and drives every operation through the damage. Each
// must return an error: never a wrong Loc, never a panic.
func TestBTreeChecksumRejectsCorruption(t *testing.T) {
	t.Parallel()
	const n = 300
	fields := []struct {
		name string
		off  func(c []byte) int // byte to damage within the cell
	}{
		{"magic", func([]byte) int { return 0 }},
		{"count", func([]byte) int { return 2 }},
		{"used", func([]byte) int { return 8 }},
		{"checksum", func([]byte) int { return 10 }},
		{"key", func([]byte) int { return btHdrSize + 2 }},
		// The first entry's Loc (leaf) or child id (interior).
		{"loc", func(c []byte) int { return btHdrSize + 2 + int(c[btHdrSize]) }},
	}
	// Node 1 is the leftmost leaf (splits keep the left half in place), so
	// key 0 and every smaller key route through it; the root is interior.
	cells := []struct {
		name string
		id   func(*btreeEngine) uint32
	}{
		{"leaf", func(*btreeEngine) uint32 { return 1 }},
		{"interior", func(tr *btreeEngine) uint32 { return tr.root }},
	}
	ops := []struct {
		name string
		run  func(tr *btreeEngine) error
	}{
		{"lookup", func(tr *btreeEngine) error {
			l, ok, _, err := tr.Lookup(0, memKey(0))
			if err == nil && ok && l != locFor(0) {
				return fmt.Errorf("wrong Loc %v", l)
			}
			return err
		}},
		{"overwrite", func(tr *btreeEngine) error {
			_, err := tr.Insert(0, memKey(0), Loc{Seg: 99})
			return err
		}},
		{"insert", func(tr *btreeEngine) error {
			_, err := tr.Insert(0, "a-new-key", Loc{Seg: 98})
			return err
		}},
		{"delete", func(tr *btreeEngine) error {
			_, err := tr.Delete(0, memKey(0))
			return err
		}},
		{"scan", func(tr *btreeEngine) error {
			_, err := tr.Scan(0, "", func(now sim.Time, key string, l Loc) (sim.Time, bool) {
				return now, true
			})
			return err
		}},
	}
	for _, cell := range cells {
		for _, field := range fields {
			for _, op := range ops {
				t.Run(cell.name+"/"+field.name+"/"+op.name, func(t *testing.T) {
					tr := newMemTree(t, 256, n)
					if tr.height < 2 || tr.root == 1 {
						t.Fatalf("tree too shallow: height %d root %d", tr.height, tr.root)
					}
					c := tr.cellBytes(cell.id(tr))
					c[field.off(c)] ^= 1 << 3
					if err := op.run(tr); err == nil {
						t.Fatal("operation through a damaged cell returned no error")
					}
				})
			}
		}
	}
}

// TestBTreeValidateRejectsMalformedCells re-checksums cells whose header
// disagrees with their entries: the checksum alone cannot catch these, so
// validate's structural checks must.
func TestBTreeValidateRejectsMalformedCells(t *testing.T) {
	t.Parallel()
	n := btNode{id: 1, leaf: true, keys: []string{"a", "bb"}, locs: []Loc{{Seg: 1}, {Seg: 2}}}
	cases := []struct {
		name  string
		forge func(b []byte)
	}{
		{"unknown flag", func(b []byte) { b[1] |= 1 << 1 }},
		{"count past entries", func(b []byte) { b[2]++ }},
		{"count short of entries", func(b []byte) { b[2]-- }},
		{"used past entries", func(b []byte) { b[8] += 2 }},
		{"key overflows used", func(b []byte) { b[btHdrSize] = 0xff }},
	}
	for _, tc := range cases {
		c := newCell(256)
		n.encode(c.b)
		if err := c.validate(1); err != nil {
			t.Fatalf("well-formed cell rejected: %v", err)
		}
		tc.forge(c.b)
		used := int(binary.LittleEndian.Uint16(c.b[8:10]))
		binary.LittleEndian.PutUint32(c.b[10:14], cellSum(c.b, used))
		if err := c.validate(1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestBTreeDifferential applies a seeded random insert/overwrite/delete
// sequence, growing the tree through splits and then shrinking it through
// merges and borrows, and checks it against a map after every operation:
// every key's Lookup and the full ordered Scan. Each overwrite's in-place
// patch must equal, byte for byte, decoding the leaf, replacing the Loc and
// encoding it again.
func TestBTreeDifferential(t *testing.T) {
	t.Parallel()
	const (
		keySpace = 240
		ops      = 3000
	)
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, keySpace)
	for i := range keys {
		// Variable lengths exercise the byte-balanced split point.
		keys[i] = fmt.Sprintf("%03x%s", i*37%keySpace, strings.Repeat("v", i%11))
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)

	tr := newMemTree(t, 256, 0)
	ref := make(map[string]Loc)
	var splits, merges, borrows, patches int
	for op := 0; op < ops; op++ {
		key := keys[rng.Intn(keySpace)]
		// Grow for the first half, shrink for the second.
		insertP := 0.75
		if op >= ops/2 {
			insertP = 0.3
		}
		before := tr.Stats()
		if rng.Float64() < insertP {
			l := Loc{Seg: uint32(op + 1), Off: int64(rng.Intn(1 << 30)), ValLen: uint32(rng.Intn(4096))}
			if _, present := ref[key]; present {
				want := tr.expectPatch(t, key, l)
				if _, err := tr.Insert(0, key, l); err != nil {
					t.Fatalf("op %d: overwrite %s: %v", op, key, err)
				}
				leaf := &tr.cells[tr.height-1]
				if !bytes.Equal(leaf.b, want) || !bytes.Equal(tr.cellBytes(leaf.id), want) {
					t.Fatalf("op %d: patched cell of %s differs from decode/modify/encode", op, key)
				}
				patches++
			} else if _, err := tr.Insert(0, key, l); err != nil {
				t.Fatalf("op %d: insert %s: %v", op, key, err)
			}
			ref[key] = l
		} else {
			if _, err := tr.Delete(0, key); err != nil {
				t.Fatalf("op %d: delete %s: %v", op, key, err)
			}
			delete(ref, key)
		}
		after := tr.Stats()
		splits += int(after.Splits - before.Splits)
		if after.Deletes > before.Deletes {
			// Merges and root collapses free a node each; borrows free none.
			freed := before.Nodes - after.Nodes
			merges += freed
			borrows += int(after.Merges-before.Merges) - freed
		}

		for _, k := range keys {
			l, ok, _, err := tr.Lookup(0, k)
			if err != nil {
				t.Fatalf("op %d: Lookup(%s): %v", op, k, err)
			}
			if want, present := ref[k]; ok != present || l != want {
				t.Fatalf("op %d: Lookup(%s) = %v %v, want %v %v", op, k, l, ok, want, present)
			}
		}
		var got []string
		if _, err := tr.Scan(0, "", func(now sim.Time, k string, l Loc) (sim.Time, bool) {
			if l != ref[k] {
				t.Fatalf("op %d: Scan yielded %s -> %v, want %v", op, k, l, ref[k])
			}
			got = append(got, k)
			return now, true
		}); err != nil {
			t.Fatalf("op %d: Scan: %v", op, err)
		}
		var want []string
		for _, k := range sorted {
			if _, ok := ref[k]; ok {
				want = append(want, k)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d: Scan = %d keys, want %d", op, len(got), len(want))
		}
	}
	if splits == 0 || merges == 0 || borrows == 0 || patches == 0 {
		t.Fatalf("sequence too tame: %d splits, %d merges, %d borrows, %d patches", splits, merges, borrows, patches)
	}
}

// expectPatch returns the cell an overwrite of key with l must write: the
// leaf holding key, decoded, with l in place of key's Loc, encoded again.
func (t *btreeEngine) expectPatch(tb testing.TB, key string, l Loc) []byte {
	tb.Helper()
	if _, ok, _, err := t.Lookup(0, key); err != nil || !ok {
		tb.Fatalf("Lookup(%s) = %v %v before overwrite", key, ok, err)
	}
	var n btNode
	t.cells[t.height-1].decode(&n)
	i, _ := sort.Find(len(n.keys), func(i int) int { return strings.Compare(key, n.keys[i]) })
	n.locs[i] = l
	b := make([]byte, t.cfg.NodeBytes)
	n.encode(b)
	return b
}

// BenchmarkBTreeLookup is one point lookup on a 20k-key tree of 512 B
// nodes over in-memory files: the index layer's host cost per descent.
func BenchmarkBTreeLookup(b *testing.B) {
	const n = 20000
	tr := newMemTree(b, 512, n)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = memKey(i * 19 % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := tr.Lookup(0, keys[i%len(keys)]); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkBTreeUpdate is one overwrite (an in-place Loc patch) on the same
// tree: the path of every YCSB update and compaction relocation.
func BenchmarkBTreeUpdate(b *testing.B) {
	const n = 20000
	tr := newMemTree(b, 512, n)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = memKey(i * 19 % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Insert(0, keys[i%len(keys)], Loc{Seg: uint32(i), Off: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
