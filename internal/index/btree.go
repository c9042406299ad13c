package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// Paged B+-tree engine. Nodes are fixed sub-page cells (NodeBytes, default
// 512 B) packed into arena files on the store's filesystem, so every
// traversal step is a timed read through the vfs: a block-granular stack
// rounds each one up to a full page, the fine-grained path transfers the
// node and nothing else. Interior nodes hold separator keys and child ids;
// leaves hold key -> Loc entries and are chained for range scans.
//
// Node cell layout (NodeBytes total):
//
//	[0]      magic (btMagic)
//	[1]      flags (bit 0: leaf; no other bit may be set)
//	[2:4]    entry count, uint16 LE
//	[4:8]    link, uint32 LE — next-leaf id for leaves, leftmost child for
//	         interior nodes (0 = none)
//	[8:10]   used entry bytes, uint16 LE
//	[10:14]  CRC-32C (Castagnoli) over bytes [1:10] ++ entries
//	[14:]    entries, sorted by key, filling exactly used bytes; zero after:
//	         leaf:     [klen u16][key][seg u32][off u64][vallen u32]
//	         interior: [klen u16][key][child u32]
//
// An interior node's link child covers keys below its first separator;
// entry i's child covers [key_i, key_i+1). The checksum makes a torn or
// bit-flipped cell self-identifying: the engine refuses a damaged cell
// rather than serve a wrong Loc (and the store rebuilds the whole index
// from the checksummed log at Open anyway).
//
// Cells are not decoded to be read. Each one is read into a reusable
// per-depth buffer and validated once — magic, flags, the used bound,
// every entry's bounds and the checksum — before any byte is used; lookups
// and descents then search the encoded entries in place, and an overwrite
// patches the leaf's Loc in place and re-checksums the cell. Only
// structural changes (new keys, splits, deletes, merges, borrows) decode
// the cells the descent already read into reusable nodes, modify those and
// encode them back.
const (
	btMagic   = 0xB7
	btHdrSize = 14

	btFlagLeaf = 1 << 0
)

const (
	btLeafExtra     = 2 + locBytes // klen + Loc(seg, off, vallen)
	btInteriorExtra = 2 + 4        // klen + child id
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cellSum is a cell's checksum over its header and its used entry bytes.
func cellSum(b []byte, used int) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, b[1:10]), castagnoli, b[btHdrSize:btHdrSize+used])
}

// btCell is one node cell as read. validate checks it once and records
// where each entry starts, so the accessors index the bytes unchecked.
type btCell struct {
	id  uint32
	b   []byte // NodeBytes
	off []int  // entry start offsets, then the end of the last entry
}

func newCell(nodeBytes int) btCell {
	// The smallest entry is an interior one with an empty key, which bounds
	// the entry count and so off's length.
	return btCell{b: make([]byte, nodeBytes), off: make([]int, 0, (nodeBytes-btHdrSize)/btInteriorExtra+1)}
}

func (c *btCell) leaf() bool   { return c.b[1]&btFlagLeaf != 0 }
func (c *btCell) link() uint32 { return binary.LittleEndian.Uint32(c.b[4:8]) }
func (c *btCell) count() int   { return len(c.off) - 1 }

func (c *btCell) keyEnd(i int) int {
	p := c.off[i]
	return p + 2 + int(binary.LittleEndian.Uint16(c.b[p:p+2]))
}

func (c *btCell) key(i int) []byte { return c.b[c.off[i]+2 : c.keyEnd(i)] }

func (c *btCell) loc(i int) Loc { return decodeLoc(c.b[c.keyEnd(i):]) }

func (c *btCell) kid(i int) uint32 { return binary.LittleEndian.Uint32(c.b[c.keyEnd(i):]) }

// validate checks the cell read for node id before any of it is used.
func (c *btCell) validate(id uint32) error {
	b := c.b
	c.id = id
	c.off = c.off[:0]
	if b[0] != btMagic {
		return fmt.Errorf("index: btree node %d: bad magic 0x%02x", id, b[0])
	}
	if b[1]&^btFlagLeaf != 0 {
		return fmt.Errorf("index: btree node %d: bad flags 0x%02x", id, b[1])
	}
	count := int(binary.LittleEndian.Uint16(b[2:4]))
	used := int(binary.LittleEndian.Uint16(b[8:10]))
	if btHdrSize+used > len(b) {
		return fmt.Errorf("index: btree node %d: used %d overflows cell", id, used)
	}
	if cellSum(b, used) != binary.LittleEndian.Uint32(b[10:14]) {
		return fmt.Errorf("index: btree node %d: checksum mismatch", id)
	}
	extra := btInteriorExtra
	if c.leaf() {
		extra = btLeafExtra
	}
	end := btHdrSize + used
	p := btHdrSize
	for i := 0; i < count; i++ {
		if p+2 > end {
			return fmt.Errorf("index: btree node %d: entry %d overflows used %d", id, i, used)
		}
		c.off = append(c.off, p)
		p += int(binary.LittleEndian.Uint16(b[p:p+2])) + extra
	}
	if p != end {
		return fmt.Errorf("index: btree node %d: %d entries span %d of used %d bytes", id, count, p-btHdrSize, used)
	}
	c.off = append(c.off, p)
	return nil
}

// search returns key's slot among the cell's sorted keys and whether it is
// present. The string conversions only compare, so they do not allocate.
func (c *btCell) search(key string) (int, bool) {
	lo, hi := 0, c.count()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if string(c.key(m)) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < c.count() && string(c.key(lo)) == key
}

// childFor picks the child covering key in an interior cell, and its slot
// (-1 = the link child).
func (c *btCell) childFor(key string) (uint32, int) {
	// First separator greater than key; the child before it covers key.
	i, ok := c.search(key)
	if ok {
		i++
	}
	if i == 0 {
		return c.link(), -1
	}
	return c.kid(i - 1), i - 1
}

// setLoc overwrites leaf entry i's Loc in place; seal must follow before
// the cell is written.
func (c *btCell) setLoc(i int, l Loc) { encodeLoc(c.b[c.keyEnd(i):], l) }

// seal re-checksums a cell patched in place. validate admitted only exact
// flags and entries that fill used exactly, so once the tail past them is
// zero the cell is byte-identical to what encode makes of the decoded node
// with the patched Locs replaced.
func (c *btCell) seal() {
	end := c.off[len(c.off)-1]
	clear(c.b[end:])
	binary.LittleEndian.PutUint32(c.b[10:14], cellSum(c.b, end-btHdrSize))
}

// btNode is one decoded node, for structural changes. keys pairs with locs
// (leaf) or kids (interior); link is the next leaf or the leftmost child.
type btNode struct {
	id   uint32
	leaf bool
	link uint32
	keys []string
	locs []Loc
	kids []uint32
}

// decode rebuilds c's node into n, reusing n's slices.
func (c *btCell) decode(n *btNode) {
	n.id, n.leaf, n.link = c.id, c.leaf(), c.link()
	n.keys, n.locs, n.kids = n.keys[:0], n.locs[:0], n.kids[:0]
	for i := 0; i < c.count(); i++ {
		n.keys = append(n.keys, string(c.key(i)))
		if n.leaf {
			n.locs = append(n.locs, c.loc(i))
		} else {
			n.kids = append(n.kids, c.kid(i))
		}
	}
}

// encode renders n into the cell buffer b.
func (n *btNode) encode(b []byte) {
	clear(b)
	b[0] = btMagic
	if n.leaf {
		b[1] = btFlagLeaf
	}
	binary.LittleEndian.PutUint16(b[2:4], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(b[4:8], n.link)
	p := btHdrSize
	for i, k := range n.keys {
		binary.LittleEndian.PutUint16(b[p:p+2], uint16(len(k)))
		copy(b[p+2:], k)
		p += 2 + len(k)
		if n.leaf {
			encodeLoc(b[p:], n.locs[i])
			p += locBytes
		} else {
			binary.LittleEndian.PutUint32(b[p:p+4], n.kids[i])
			p += 4
		}
	}
	used := p - btHdrSize
	binary.LittleEndian.PutUint16(b[8:10], uint16(used))
	binary.LittleEndian.PutUint32(b[10:14], cellSum(b, used))
}

func (n *btNode) used() int {
	u := 0
	for _, k := range n.keys {
		if n.leaf {
			u += len(k) + btLeafExtra
		} else {
			u += len(k) + btInteriorExtra
		}
	}
	return u
}

// childAt resolves a parent's child pointer by slot (-1 = link).
func (n *btNode) childAt(slot int) uint32 {
	if slot < 0 {
		return n.link
	}
	return n.kids[slot]
}

// arena is one fixed-size node file.
type arena struct {
	name string
	w    File
	r    File
}

type btreeEngine struct {
	be  Backend
	cfg Config
	tr  telemetry.Tracer

	arenas []arena
	nextID uint32   // next never-used node id (1-based)
	free   []uint32 // freed node ids, reused LIFO

	root   uint32
	height int

	stats Stats

	// Per-depth state of the last descent (depth 0 = root): the cell read,
	// the child slot taken from it, and the node it decodes to when a
	// structural change needs one.
	cells []btCell
	slots []int
	nodes []btNode

	sib     btCell // a sibling read by rebalancing
	sibNode btNode
	right   btNode // the new right half of a split
	buf     []byte // encode scratch
}

func newBTree(be Backend, cfg Config) (*btreeEngine, error) {
	if cfg.NodeBytes < btHdrSize+2*btLeafExtra+16 {
		return nil, fmt.Errorf("index: NodeBytes %d too small for a btree node", cfg.NodeBytes)
	}
	if cfg.NodeBytes > be.PageSize() {
		return nil, fmt.Errorf("index: NodeBytes %d exceeds the %d B page — interior nodes must stay sub-page",
			cfg.NodeBytes, be.PageSize())
	}
	t := &btreeEngine{
		be:     be,
		cfg:    cfg,
		tr:     cfg.Tracer,
		nextID: 1,
		sib:    newCell(cfg.NodeBytes),
		buf:    make([]byte, cfg.NodeBytes),
	}
	// The tree starts as one empty leaf root; the first arena is created by
	// the allocation below.
	id, err := t.alloc()
	if err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	if _, err := t.writeNode(0, &btNode{id: id, leaf: true}); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *btreeEngine) Kind() Kind { return BTree }

func (t *btreeEngine) Stats() Stats {
	s := t.stats
	s.Height = t.height
	s.Nodes = int(t.nextID-1) - len(t.free)
	return s
}

func (t *btreeEngine) capacity() int { return t.cfg.NodeBytes - btHdrSize }

// entrySize is a leaf entry's footprint; the largest thing Insert must fit.
func entrySize(key string) int { return len(key) + btLeafExtra }

// ---- arena paging ----

func (t *btreeEngine) arenaName(i int) string {
	return fmt.Sprintf("%sbt-%08d", t.cfg.NamePrefix, i)
}

// alloc returns a node id, creating a new arena file when the id space of
// the existing ones is exhausted. Ids are 1-based so 0 can mean "none".
func (t *btreeEngine) alloc() (uint32, error) {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id, nil
	}
	id := t.nextID
	need := int(id-1)/t.cfg.ArenaNodes + 1
	for len(t.arenas) < need {
		name := t.arenaName(len(t.arenas))
		w, err := t.be.Create(name, int64(t.cfg.ArenaNodes)*int64(t.cfg.NodeBytes))
		if err != nil {
			return 0, fmt.Errorf("index: create arena %s: %w", name, err)
		}
		r, err := t.be.OpenReader(name, t.cfg.Fine)
		if err != nil {
			return 0, fmt.Errorf("index: open arena %s: %w", name, err)
		}
		t.arenas = append(t.arenas, arena{name: name, w: w, r: r})
	}
	t.nextID++
	return id, nil
}

func (t *btreeEngine) place(id uint32) (*arena, int64) {
	slot := int(id - 1)
	return &t.arenas[slot/t.cfg.ArenaNodes], int64(slot%t.cfg.ArenaNodes) * int64(t.cfg.NodeBytes)
}

// read fetches node id into c and validates it — a timed sub-page read
// down the configured path (the vfs page cache and fine-grained cache sit
// below, so hot upper levels hit host memory exactly as they would on real
// hardware).
func (t *btreeEngine) read(now sim.Time, id uint32, c *btCell) (sim.Time, error) {
	if id == 0 || id >= t.nextID {
		return now, fmt.Errorf("index: btree node id %d out of range", id)
	}
	ar, off := t.place(id)
	start := now
	got, done, err := ar.r.ReadAt(now, c.b, off)
	if err != nil {
		return done, fmt.Errorf("index: btree node %d: %w", id, err)
	}
	if got != t.cfg.NodeBytes {
		return done, fmt.Errorf("index: btree node %d: short read %d", id, got)
	}
	t.stats.NodeReads++
	t.stats.BytesRead += uint64(got)
	if t.tr.Enabled() {
		t.tr.Span(telemetry.TrackIndex, "index.btree.node_read", start, done)
	}
	return done, c.validate(id)
}

// writeCell writes one node cell — a timed sub-page write that lands in the
// page cache and reaches the device via writeback, like every other host
// write.
func (t *btreeEngine) writeCell(now sim.Time, id uint32, b []byte) (sim.Time, error) {
	ar, off := t.place(id)
	wrote, done, err := ar.w.WriteAt(now, b, off)
	if err != nil {
		return done, fmt.Errorf("index: btree node %d: %w", id, err)
	}
	if wrote != len(b) {
		return done, fmt.Errorf("index: btree node %d: short write %d", id, wrote)
	}
	t.stats.NodeWrites++
	t.stats.BytesWritten += uint64(len(b))
	return done, nil
}

// writePatched seals and writes a cell patched in place.
func (t *btreeEngine) writePatched(now sim.Time, c *btCell) (sim.Time, error) {
	c.seal()
	return t.writeCell(now, c.id, c.b)
}

func (t *btreeEngine) writeNode(now sim.Time, n *btNode) (sim.Time, error) {
	n.encode(t.buf)
	return t.writeCell(now, n.id, t.buf)
}

// descend reads root -> leaf for key into the per-depth cells, recording
// the child slot taken at each interior level, and returns the leaf cell
// (depth height-1).
func (t *btreeEngine) descend(now sim.Time, key string) (*btCell, sim.Time, error) {
	for len(t.cells) < t.height {
		t.cells = append(t.cells, newCell(t.cfg.NodeBytes))
		t.slots = append(t.slots, 0)
		t.nodes = append(t.nodes, btNode{})
	}
	return t.descendFrom(now, 0, t.root, key)
}

// descendFrom is descend resumed at depth d, whose node is id: the cells
// above d keep the path the last descent read.
func (t *btreeEngine) descendFrom(now sim.Time, d int, id uint32, key string) (*btCell, sim.Time, error) {
	for ; ; d++ {
		c := &t.cells[d]
		done, err := t.read(now, id, c)
		if err != nil {
			return nil, done, err
		}
		now = done
		leaf := d == t.height-1
		if c.leaf() != leaf {
			return nil, now, fmt.Errorf("index: btree node %d: leaf flag disagrees with depth %d of height %d", id, d, t.height)
		}
		if leaf {
			return c, now, nil
		}
		id, t.slots[d] = c.childFor(key)
	}
}

// decoded decodes the cell the last descent read at depth d.
func (t *btreeEngine) decoded(d int) *btNode {
	n := &t.nodes[d]
	t.cells[d].decode(n)
	return n
}

// ---- lookup ----

func (t *btreeEngine) Lookup(now sim.Time, key string) (Loc, bool, sim.Time, error) {
	t.stats.Lookups++
	leaf, now, err := t.descend(now, key)
	if err != nil {
		return Loc{}, false, now, err
	}
	i, ok := leaf.search(key)
	if !ok {
		return Loc{}, false, now, nil
	}
	return leaf.loc(i), true, now, nil
}

// ---- insert ----

func (t *btreeEngine) Insert(now sim.Time, key string, l Loc) (sim.Time, error) {
	t.stats.Inserts++
	if entrySize(key) > t.capacity()/2 {
		return now, fmt.Errorf("index: key of %d bytes does not fit a %d B btree node", len(key), t.cfg.NodeBytes)
	}
	c, now, err := t.descend(now, key)
	if err != nil {
		return now, err
	}
	i, ok := c.search(key)
	if ok {
		c.setLoc(i, l)
		return t.writePatched(now, c)
	}
	d := t.height - 1
	leaf := t.decoded(d)
	leaf.keys = slices.Insert(leaf.keys, i, key)
	leaf.locs = slices.Insert(leaf.locs, i, l)
	if leaf.used() <= t.capacity() {
		return t.writeNode(now, leaf)
	}
	return t.splitUp(now, d, leaf)
}

// Repoint walks the ascending updates left to right along the leaf level.
// Each leaf is read once, patched in place for every update it holds, and
// written once; the next key re-descends only from the deepest interior
// cell that still covers it. A key the tree does not hold
// falls back to Insert, after which the next key descends from the root.
func (t *btreeEngine) Repoint(now sim.Time, ups []Update) (sim.Time, error) {
	var leaf *btCell // last leaf read; nil after a structural Insert
	dirty := false   // leaf holds patches not yet written
	var err error
	for i, u := range ups {
		if i > 0 && u.Key < ups[i-1].Key {
			return now, fmt.Errorf("index: btree repoint: key %q follows %q", u.Key, ups[i-1].Key)
		}
		if leaf == nil {
			if leaf, now, err = t.descend(now, u.Key); err != nil {
				return now, err
			}
		} else if d := t.divergence(leaf, u.Key); d >= 0 {
			if dirty {
				if now, err = t.writePatched(now, leaf); err != nil {
					return now, err
				}
				dirty = false
			}
			id, slot := t.cells[d].childFor(u.Key)
			t.slots[d] = slot
			if leaf, now, err = t.descendFrom(now, d+1, id, u.Key); err != nil {
				return now, err
			}
		}
		if j, ok := leaf.search(u.Key); ok {
			t.stats.Inserts++
			leaf.setLoc(j, u.Loc)
			dirty = true
			continue
		}
		if dirty {
			if now, err = t.writePatched(now, leaf); err != nil {
				return now, err
			}
			dirty = false
		}
		if now, err = t.Insert(now, u.Key, u.Loc); err != nil {
			return now, err
		}
		leaf = nil
	}
	if dirty {
		return t.writePatched(now, leaf)
	}
	return now, nil
}

// divergence returns the shallowest depth whose cell, on the path the last
// descent read, routes key to a different child — below it the path must be
// read again — or -1 when the leaf already covers key.
func (t *btreeEngine) divergence(leaf *btCell, key string) int {
	// The leaf covered the previous key and keys ascend, so a key up to the
	// leaf's last is covered too.
	if n := leaf.count(); n > 0 && key <= string(leaf.key(n-1)) {
		return -1
	}
	for d := 0; d < t.height-1; d++ {
		if _, slot := t.cells[d].childFor(key); slot != t.slots[d] {
			return d
		}
	}
	return -1
}

// splitUp splits the overflowing node n at depth d and propagates the
// promoted separator toward the root, splitting interior nodes as needed.
func (t *btreeEngine) splitUp(now sim.Time, d int, n *btNode) (sim.Time, error) {
	for {
		rightID, err := t.alloc()
		if err != nil {
			return now, err
		}
		t.stats.Splits++
		m := splitPoint(n)
		right := &t.right
		right.id, right.leaf = rightID, n.leaf
		right.keys, right.locs, right.kids = right.keys[:0], right.locs[:0], right.kids[:0]
		var sep string
		if n.leaf {
			right.keys = append(right.keys, n.keys[m:]...)
			right.locs = append(right.locs, n.locs[m:]...)
			n.keys = n.keys[:m]
			n.locs = n.locs[:m]
			right.link = n.link
			n.link = rightID
			sep = right.keys[0]
		} else {
			// The separator at m moves up; its child becomes right's link.
			sep = n.keys[m]
			right.link = n.kids[m]
			right.keys = append(right.keys, n.keys[m+1:]...)
			right.kids = append(right.kids, n.kids[m+1:]...)
			n.keys = n.keys[:m]
			n.kids = n.kids[:m]
		}
		if now, err = t.writeNode(now, n); err != nil {
			return now, err
		}
		if now, err = t.writeNode(now, right); err != nil {
			return now, err
		}

		if d == 0 {
			// Root split: the tree grows a level.
			rootID, err := t.alloc()
			if err != nil {
				return now, err
			}
			root := &btNode{id: rootID, link: n.id, keys: []string{sep}, kids: []uint32{rightID}}
			t.root = rootID
			t.height++
			return t.writeNode(now, root)
		}

		d--
		parent := t.decoded(d)
		i := sort.SearchStrings(parent.keys, sep)
		parent.keys = slices.Insert(parent.keys, i, sep)
		parent.kids = slices.Insert(parent.kids, i, rightID)
		if parent.used() <= t.capacity() {
			return t.writeNode(now, parent)
		}
		n = parent
	}
}

// splitPoint picks the entry index where the left half's byte footprint
// first reaches half the node's, keeping both halves near balanced under
// variable-length keys.
func splitPoint(n *btNode) int {
	target := n.used() / 2
	extra := btInteriorExtra
	if n.leaf {
		extra = btLeafExtra
	}
	acc := 0
	for i, k := range n.keys {
		acc += len(k) + extra
		if acc >= target {
			// Both sides must keep at least one entry.
			if i == 0 {
				return 1
			}
			if i+1 >= len(n.keys) {
				return len(n.keys) - 1
			}
			return i + 1
		}
	}
	return len(n.keys) / 2
}

// ---- delete ----

func (t *btreeEngine) Delete(now sim.Time, key string) (sim.Time, error) {
	t.stats.Deletes++
	c, now, err := t.descend(now, key)
	if err != nil {
		return now, err
	}
	i, ok := c.search(key)
	if !ok {
		return now, nil
	}
	d := t.height - 1
	leaf := t.decoded(d)
	leaf.keys = slices.Delete(leaf.keys, i, i+1)
	leaf.locs = slices.Delete(leaf.locs, i, i+1)
	if now, err = t.writeNode(now, leaf); err != nil {
		return now, err
	}
	return t.rebalanceUp(now, d, leaf)
}

// rebalanceUp restores the underflow invariant from the shrunken node n at
// depth d toward the root: merge with an adjacent sibling when both fit in
// one cell, otherwise borrow an entry from a fuller neighbor; a root
// interior node left without separators collapses into its only child.
func (t *btreeEngine) rebalanceUp(now sim.Time, d int, n *btNode) (sim.Time, error) {
	var err error
	for {
		if d == 0 {
			// n is the root. An interior root with no separators has one
			// child left: the tree shrinks a level.
			if !n.leaf && len(n.keys) == 0 {
				t.free = append(t.free, n.id)
				t.root = n.link
				t.height--
				t.stats.Merges++
			}
			return now, nil
		}
		if n.used()*4 >= t.capacity() {
			return now, nil
		}
		d--
		parent := t.decoded(d)
		if now, err = t.rebalanceChild(now, parent, t.slots[d], n); err != nil {
			return now, err
		}
		n = parent
	}
}

// rebalanceChild fixes the underfull child at slot by merging with or
// borrowing from an adjacent sibling, rewriting every touched node. The
// parent is updated in memory and written; its own underflow is the
// caller's loop to fix.
func (t *btreeEngine) rebalanceChild(now sim.Time, parent *btNode, slot int, child *btNode) (sim.Time, error) {
	// Prefer the right sibling; fall back to the left. slot is the child's
	// separator index in parent (-1 when child is the link child), so the
	// right sibling is kids[slot+1] and the left is childAt(slot-1).
	sib := &t.sibNode
	var err error
	if slot+1 < len(parent.kids) {
		if now, err = t.read(now, parent.kids[slot+1], &t.sib); err != nil {
			return now, err
		}
		t.sib.decode(sib)
		return t.joinOrBorrow(now, parent, slot+1, child, sib)
	}
	if slot >= 0 {
		if now, err = t.read(now, parent.childAt(slot-1), &t.sib); err != nil {
			return now, err
		}
		t.sib.decode(sib)
		return t.joinOrBorrow(now, parent, slot, sib, child)
	}
	// No sibling: parent has a single child and no separators; the caller's
	// loop collapses it at the root.
	return now, nil
}

// joinOrBorrow balances the adjacent pair (left, right) whose separator is
// parent.keys[sepIdx]: a full merge when one cell fits both, otherwise one
// entry shifts across the separator when that actually relieves pressure.
func (t *btreeEngine) joinOrBorrow(now sim.Time, parent *btNode, sepIdx int, left, right *btNode) (sim.Time, error) {
	sep := parent.keys[sepIdx]
	merged := left.used() + right.used()
	if !left.leaf {
		merged += len(sep) + btInteriorExtra
	}
	var err error
	if merged <= t.capacity() {
		// Merge right into left and drop the separator from the parent.
		if left.leaf {
			left.keys = append(left.keys, right.keys...)
			left.locs = append(left.locs, right.locs...)
			left.link = right.link
		} else {
			left.keys = append(left.keys, sep)
			left.kids = append(left.kids, right.link)
			left.keys = append(left.keys, right.keys...)
			left.kids = append(left.kids, right.kids...)
		}
		parent.keys = slices.Delete(parent.keys, sepIdx, sepIdx+1)
		parent.kids = slices.Delete(parent.kids, sepIdx, sepIdx+1)
		t.free = append(t.free, right.id)
		t.stats.Merges++
		if now, err = t.writeNode(now, left); err != nil {
			return now, err
		}
		return t.writeNode(now, parent)
	}

	// Borrow toward the emptier side, only when the donor stays above the
	// underflow line afterwards.
	if left.used() < right.used() && len(right.keys) > 1 {
		if left.leaf {
			left.keys = append(left.keys, right.keys[0])
			left.locs = append(left.locs, right.locs[0])
			right.keys = slices.Delete(right.keys, 0, 1)
			right.locs = slices.Delete(right.locs, 0, 1)
			parent.keys[sepIdx] = right.keys[0]
		} else {
			// Rotate left through the separator: sep comes down to left,
			// right's link child crosses, right's first key replaces sep.
			left.keys = append(left.keys, sep)
			left.kids = append(left.kids, right.link)
			parent.keys[sepIdx] = right.keys[0]
			right.link = right.kids[0]
			right.keys = slices.Delete(right.keys, 0, 1)
			right.kids = slices.Delete(right.kids, 0, 1)
		}
	} else if right.used() < left.used() && len(left.keys) > 1 {
		last := len(left.keys) - 1
		if left.leaf {
			right.keys = slices.Insert(right.keys, 0, left.keys[last])
			right.locs = slices.Insert(right.locs, 0, left.locs[last])
			parent.keys[sepIdx] = left.keys[last]
			left.keys = left.keys[:last]
			left.locs = left.locs[:last]
		} else {
			// Rotate right through the separator.
			right.keys = slices.Insert(right.keys, 0, sep)
			right.kids = slices.Insert(right.kids, 0, right.link)
			right.link = left.kids[last]
			parent.keys[sepIdx] = left.keys[last]
			left.keys = left.keys[:last]
			left.kids = left.kids[:last]
		}
	} else {
		return now, nil // nothing productive to move; underfull is tolerated
	}
	t.stats.Merges++
	if now, err = t.writeNode(now, left); err != nil {
		return now, err
	}
	if now, err = t.writeNode(now, right); err != nil {
		return now, err
	}
	return t.writeNode(now, parent)
}

// ---- scan ----

func (t *btreeEngine) Scan(now sim.Time, start string, fn func(sim.Time, string, Loc) (sim.Time, bool)) (sim.Time, error) {
	leaf, now, err := t.descend(now, start)
	if err != nil {
		return now, err
	}
	// fn may call back into the engine, which reuses the per-depth cells:
	// walk the leaf chain in a cell of this scan's own.
	c := newCell(t.cfg.NodeBytes)
	c.id = leaf.id
	copy(c.b, leaf.b)
	c.off = append(c.off, leaf.off...)
	i, _ := c.search(start)
	for {
		for ; i < c.count(); i++ {
			var more bool
			now, more = fn(now, string(c.key(i)), c.loc(i))
			if !more {
				return now, nil
			}
		}
		if c.link() == 0 {
			return now, nil
		}
		if now, err = t.read(now, c.link(), &c); err != nil {
			return now, err
		}
		i = 0
	}
}

// ---- maintenance ----

func (t *btreeEngine) Tick(now sim.Time) (bool, sim.Time, error) { return false, now, nil }

func (t *btreeEngine) Close(now sim.Time) (sim.Time, error) {
	var err error
	for i := range t.arenas {
		ar := &t.arenas[i]
		if ar.w != nil {
			done, serr := ar.w.Sync(now)
			if serr != nil && err == nil {
				err = serr
			}
			now = done
			if cerr := ar.w.Close(); cerr != nil && err == nil {
				err = cerr
			}
			ar.w = nil
		}
		if ar.r != nil {
			if cerr := ar.r.Close(); cerr != nil && err == nil {
				err = cerr
			}
			ar.r = nil
		}
	}
	return now, err
}
