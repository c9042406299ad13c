package pipette

import (
	"pipette/internal/index"
	"pipette/internal/kv"
)

// ErrNotFound reports a KV lookup of an absent key.
var ErrNotFound = kv.ErrNotFound

// KVOptions configures a key-value store on a System. Zero values take
// defaults.
type KVOptions struct {
	// NamePrefix prefixes the store's segment files (default "kv/seg-").
	// Distinct prefixes give independent stores on one System.
	NamePrefix string
	// SegmentBytes sets the value-log segment size (default 4 MiB).
	SegmentBytes int64
	// BlockReads forces Gets through the ordinary page-granular read path
	// instead of O_FINE_GRAINED — the baseline the paper compares against.
	BlockReads bool
	// Index selects the index engine: "hash" (default, in-memory), "btree"
	// (paged B+-tree on the store's filesystem), or "lsm" (bloom-filtered
	// sorted runs). The on-device engines add sub-page index reads to every
	// lookup, following the same fine/block setting as value reads.
	Index string
}

// KV is a log-structured key-value store persisted on the System's
// filesystem: an append-only value log with an in-memory index, where every
// Get issues an exact-length read — the access pattern Pipette's
// byte-granular path is built for. Safe for concurrent use; operations
// advance the System's virtual clock.
type KV struct {
	sys   *System
	store *kv.Store
}

// OpenKV opens (or recovers) a key-value store on the System. If segment
// files from an earlier store with the same prefix exist, the index is
// rebuilt from them: puts and deletes made before the last Sync reappear.
func (s *System) OpenKV(opts KVOptions) (*KV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kind, err := index.ParseKind(opts.Index)
	if err != nil {
		return nil, err
	}
	store, done, err := kv.Open(s.clock.Now(), kv.VFSBackend{V: s.st.V}, kv.Config{
		NamePrefix:   opts.NamePrefix,
		SegmentBytes: opts.SegmentBytes,
		FineReads:    !opts.BlockReads,
		Index:        index.Config{Kind: kind},
	})
	if err != nil {
		return nil, err
	}
	s.clock.AdvanceTo(done)
	k := &KV{sys: s, store: store}
	s.kvs = append(s.kvs, store)
	return k, nil
}

// Put writes key = value.
func (k *KV) Put(key string, value []byte) error {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := k.store.Put(s.clock.Now(), key, value)
	s.clock.AdvanceTo(done)
	return err
}

// Get returns key's value, or ErrNotFound.
func (k *KV) Get(key string) ([]byte, error) {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	val, done, err := k.store.Get(s.clock.Now(), key, nil)
	s.clock.AdvanceTo(done)
	if err != nil {
		return nil, err
	}
	return val, nil
}

// Delete removes key; ErrNotFound if absent.
func (k *KV) Delete(key string) error {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := k.store.Delete(s.clock.Now(), key)
	s.clock.AdvanceTo(done)
	return err
}

// Scan visits up to n keys >= start in lexicographic order; fn returning
// false stops early.
func (k *KV) Scan(start string, n int, fn func(key string, value []byte) bool) error {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := k.store.Scan(s.clock.Now(), start, n, fn)
	s.clock.AdvanceTo(done)
	return err
}

// Sync makes everything written so far recoverable.
func (k *KV) Sync() error {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := k.store.Sync(s.clock.Now())
	s.clock.AdvanceTo(done)
	return err
}

// Close syncs and releases the store's file handles. The store stays on
// disk; OpenKV with the same prefix recovers it.
func (k *KV) Close() error {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	done, err := k.store.Close(s.clock.Now())
	s.clock.AdvanceTo(done)
	for i, st := range s.kvs {
		if st == k.store {
			s.kvs = append(s.kvs[:i], s.kvs[i+1:]...)
			break
		}
	}
	return err
}

// Len reports the number of live keys.
func (k *KV) Len() int {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return k.store.Len()
}

// KVStats mirrors the store's counters.
type KVStats = kv.Stats

// Stats returns a snapshot of the store's counters.
func (k *KV) Stats() KVStats {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return k.store.Stats()
}

// KVIndexStats mirrors the index engine's counters (node reads, bloom
// checks, cache hits, ...).
type KVIndexStats = index.Stats

// IndexKind reports which index engine the store runs on.
func (k *KV) IndexKind() string {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(k.store.IndexKind())
}

// IndexStats returns a snapshot of the index engine's counters.
func (k *KV) IndexStats() KVIndexStats {
	s := k.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return k.store.IndexStats()
}

// tickKVs runs one compaction round per open store; called (with the System
// lock held) from MaintenanceTick.
func (s *System) tickKVs() {
	for _, st := range s.kvs {
		if _, done, err := st.MaintenanceTick(s.clock.Now()); err == nil {
			s.clock.AdvanceTo(done)
		}
	}
}
