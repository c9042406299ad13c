package index

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pipette/internal/sim"
)

// TestRepointMatchesInsert applies the same updates to twin engines of every
// kind: one sorted Repoint on one twin, one Insert per update, in the same
// order, on the other. The twins must then answer every Lookup and a full
// Scan identically, and the btree twins' arena files must be byte-identical.
// The btree's batch must read each distinct leaf it updates at most once per
// level and write it once; a key absent from the tree falls back to Insert and may cost one
// extra descent for itself and one for the key after it.
func TestRepointMatchesInsert(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		base   int            // keys 0..base-1 are inserted first
		update func(int) bool // whether key i gets a new Loc
		absent []int          // keys the batch inserts; see absentKey
	}{
		{"single-leaf", 5, func(i int) bool { return i%2 == 0 }, nil},
		{"every-leaf", 2000, func(i int) bool { return i%3 != 1 }, nil},
		{"absent-keys", 600, func(i int) bool { return i%4 == 0 }, []int{-3, -1, 0, 1, 2, 250, 251, 598, 599, 5000}},
	}
	for _, tc := range cases {
		for _, kind := range Kinds() {
			tc, kind := tc, kind
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Kind: kind, NodeBytes: 256, ArenaNodes: 64, MemtableEntries: 128, BlockBytes: 256, LevelFanout: 2}
				cfg.setDefaults()
				var bes [2]memBackend
				var engs [2]Engine
				for i := range engs {
					bes[i] = memBackend{}
					e, err := New(bes[i], cfg)
					if err != nil {
						t.Fatal(err)
					}
					engs[i] = e
					for k := 0; k < tc.base; k++ {
						if _, err := e.Insert(0, memKey(k), locFor(k)); err != nil {
							t.Fatal(err)
						}
					}
				}
				var ups []Update
				for k := 0; k < tc.base; k++ {
					if tc.update(k) {
						ups = append(ups, Update{Key: memKey(k), Loc: Loc{Seg: 99, Off: int64(k) * 512, ValLen: 200}})
					}
				}
				for _, k := range tc.absent {
					ups = append(ups, Update{Key: absentKey(k), Loc: Loc{Seg: 98, Off: int64(k), ValLen: 7}})
				}
				sort.Slice(ups, func(i, j int) bool { return ups[i].Key < ups[j].Key })

				before := engs[0].Stats()
				if _, err := engs[0].Repoint(0, ups); err != nil {
					t.Fatalf("Repoint: %v", err)
				}
				reads := engs[0].Stats().NodeReads - before.NodeReads
				writes := engs[0].Stats().NodeWrites - before.NodeWrites
				for _, u := range ups {
					if _, err := engs[1].Insert(0, u.Key, u.Loc); err != nil {
						t.Fatalf("Insert(%s): %v", u.Key, err)
					}
				}
				if got, want := engs[0].Stats().Inserts, engs[1].Stats().Inserts; got != want {
					t.Fatalf("Inserts = %d after Repoint, %d after Insert", got, want)
				}

				keys := []string{absentKey(-2), absentKey(3), memKey(tc.base)} // never present
				for k := 0; k < tc.base; k++ {
					keys = append(keys, memKey(k))
				}
				for _, u := range ups {
					keys = append(keys, u.Key)
				}
				for _, k := range keys {
					l0, ok0, _, err0 := engs[0].Lookup(0, k)
					l1, ok1, _, err1 := engs[1].Lookup(0, k)
					if err0 != nil || err1 != nil || ok0 != ok1 || l0 != l1 {
						t.Fatalf("Lookup(%s) = %v %v %v after Repoint, %v %v %v after Insert", k, l0, ok0, err0, l1, ok1, err1)
					}
				}
				if s0, s1 := scanAll(t, engs[0]), scanAll(t, engs[1]); s0 != s1 {
					t.Fatalf("Scan differs:\nRepoint: %.200s\nInsert:  %.200s", s0, s1)
				}

				tr, ok := engs[0].(*btreeEngine)
				if !ok {
					return
				}
				for name, f := range bes[1] {
					if !bytes.Equal(bes[0][name].b, f.b) {
						t.Fatalf("arena %s differs between Repoint and Insert", name)
					}
				}
				// Distinct leaves holding an updated key, read off the final tree.
				leaves := make(map[uint32]bool)
				for _, u := range ups {
					leaf, _, err := tr.descend(0, u.Key)
					if err != nil {
						t.Fatal(err)
					}
					leaves[leaf.id] = true
				}
				limit := uint64((len(leaves) + 2*len(tc.absent)) * tr.height)
				if reads > limit {
					t.Fatalf("Repoint read %d nodes for %d updates over %d leaves of a height-%d tree (%d absent); want at most %d",
						reads, len(ups), len(leaves), tr.height, len(tc.absent), limit)
				}
				if len(tc.absent) == 0 && writes != uint64(len(leaves)) {
					t.Fatalf("Repoint wrote %d nodes for %d updates over %d leaves; want each leaf written once", writes, len(ups), len(leaves))
				}
				if n := countLeaves(t, tr); tc.name == "every-leaf" && (len(leaves) != n || tr.height < 3) {
					t.Fatalf("setup: %d of %d leaves touched in a height-%d tree", len(leaves), n, tr.height)
				}
			})
		}
	}
}

// absentKey is a key no base key equals: for i >= 0 it sorts right after
// memKey(i), for i < 0 before every memKey.
func absentKey(i int) string {
	if i < 0 {
		return fmt.Sprintf("a%04d", -i)
	}
	return memKey(i) + "+"
}

// countLeaves walks the leaf chain.
func countLeaves(t *testing.T, tr *btreeEngine) int {
	t.Helper()
	leaf, _, err := tr.descend(0, "")
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for id := leaf.link(); id != 0; id = tr.sib.link() {
		if _, err := tr.read(0, id, &tr.sib); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// scanAll renders an engine's full ordered contents.
func scanAll(t *testing.T, e Engine) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := e.Scan(0, "", func(now sim.Time, k string, l Loc) (sim.Time, bool) {
		fmt.Fprintf(&b, "%s=%v ", k, l)
		return now, true
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestBTreeRepointRejectsUnsortedKeys checks the batch's precondition.
func TestBTreeRepointRejectsUnsortedKeys(t *testing.T) {
	t.Parallel()
	tr := newMemTree(t, 256, 100)
	ups := []Update{{Key: memKey(50), Loc: locFor(1)}, {Key: memKey(10), Loc: locFor(2)}}
	if _, err := tr.Repoint(0, ups); err == nil {
		t.Fatal("Repoint accepted descending keys")
	}
}
