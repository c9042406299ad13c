package index

import "pipette/internal/sim"

// hashEngine is the store's original index, extracted behind the Engine
// interface: an in-memory hash map for point lookups plus a deterministic
// skip list for ordered scans. It touches no files — lookups are free in
// both virtual time and device traffic, which is exactly what makes it the
// baseline for the on-device engines: any read-amp a btree or lsm cell
// shows over a hash cell is index traversal, nothing else.
type hashEngine struct {
	m     map[string]Loc
	keys  *skipList
	stats Stats
}

func newHash() *hashEngine {
	return &hashEngine{
		m:    make(map[string]Loc),
		keys: newSkipList(0x5eed),
	}
}

func (h *hashEngine) Kind() Kind { return Hash }

func (h *hashEngine) Insert(now sim.Time, key string, l Loc) (sim.Time, error) {
	h.stats.Inserts++
	h.m[key] = l
	h.keys.set(key, l, false)
	return now, nil
}

func (h *hashEngine) Repoint(now sim.Time, ups []Update) (sim.Time, error) {
	return insertEach(h, now, ups)
}

func (h *hashEngine) Delete(now sim.Time, key string) (sim.Time, error) {
	h.stats.Deletes++
	if _, ok := h.m[key]; !ok {
		return now, nil
	}
	delete(h.m, key)
	h.keys.delete(key)
	return now, nil
}

func (h *hashEngine) Lookup(now sim.Time, key string) (Loc, bool, sim.Time, error) {
	h.stats.Lookups++
	l, ok := h.m[key]
	return l, ok, now, nil
}

func (h *hashEngine) Scan(now sim.Time, start string, fn func(sim.Time, string, Loc) (sim.Time, bool)) (sim.Time, error) {
	for n := h.keys.seek(start); n != nil; n = n.next[0] {
		var more bool
		now, more = fn(now, n.key, n.loc)
		if !more {
			break
		}
	}
	return now, nil
}

func (h *hashEngine) Tick(now sim.Time) (bool, sim.Time, error) { return false, now, nil }

func (h *hashEngine) Close(now sim.Time) (sim.Time, error) { return now, nil }

func (h *hashEngine) Stats() Stats { return h.stats }
