// Package memtable implements Oparaca's distributed in-memory hash
// table (paper §V: "its reliance on the distributed in-memory hash
// table to consolidate data for batch write operations").
//
// A Table partitions keys over a fixed set of shards by an FNV-1a hash
// of the key, serves reads through a read-through cache over the
// backing document store, and persists dirty entries with a
// write-behind flusher that consolidates them into batch writes —
// amortizing the database's write-capacity ceiling.
//
// Every operation has one path. A call locks all the shards of its
// keys together, in ascending shard order, so a multi-key read sees
// one snapshot and concurrent multi-key calls cannot deadlock. Reads
// serve hits from memory and consolidate misses into one
// kvstore.BatchGet, so loading a whole object's state costs one
// simulated DB round trip instead of one per key. Writes — Put,
// PutMany, Delete and PutManyIfVersion — are all version-checked
// commits that do their backing I/O under the shard locks before
// memory changes: a failed write changes nothing (Delete documents the
// one exception, a delete racing a flush), and memory and the backing
// store always agree on the order of writes.
package memtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Sentinel errors.
var (
	// ErrNotFound is returned when a key exists neither in memory nor
	// in the backing store.
	ErrNotFound = errors.New("memtable: key not found")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("memtable: table closed")
	// ErrVersionMismatch is returned by PutManyIfVersion when any key's
	// current version differs from the caller's expectation. It aliases
	// kvstore.ErrVersionMismatch so errors.Is sees one sentinel across
	// both layers of the optimistic-concurrency stack.
	ErrVersionMismatch = kvstore.ErrVersionMismatch
)

// AnyVersion, used as CASOp.Expect, skips version validation for that
// key (an unconditional write inside an otherwise validated commit).
const AnyVersion int64 = -1

// Mode selects the table's persistence behaviour, mirroring the
// paper's evaluation variants.
type Mode int

const (
	// ModeWriteBehind keeps entries in memory and flushes dirty keys
	// to the backing store in consolidated batches (the `oprc` and
	// `oprc-bypass` configurations).
	ModeWriteBehind Mode = iota + 1
	// ModeWriteThrough writes each update synchronously to the
	// backing store (what the Knative baseline effectively does).
	ModeWriteThrough
	// ModeMemoryOnly never touches the backing store (the
	// `oprc-bypass-nonpersist` configuration).
	ModeMemoryOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeWriteBehind:
		return "write-behind"
	case ModeWriteThrough:
		return "write-through"
	case ModeMemoryOnly:
		return "memory-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Table.
type Config struct {
	// Mode selects persistence behaviour; defaults to ModeWriteBehind.
	Mode Mode
	// Backing is the persistent store; required unless ModeMemoryOnly.
	Backing *kvstore.Store
	// Shards is the number of in-memory shard maps (per-VM partitions
	// in the paper's deployment); a key's shard is an FNV-1a hash of
	// the key modulo this count. Defaults to 16, capped at 64 (every
	// call tracks the shard set it locks in a uint64 bitmask).
	Shards int
	// FlushInterval is the write-behind flush period. Defaults 50ms.
	FlushInterval time.Duration
	// FlushBatchSize triggers an early flush of a shard once that many
	// keys are dirty. Defaults to 256.
	FlushBatchSize int
	// TombstoneTTL evicts a deleted key's version tombstone this long
	// after the deletion. Tombstones keep stale optimistic commits from
	// resurrecting deleted keys, but every deleted key otherwise parks
	// one map entry per shard forever — object-churning workloads grow
	// without bound. Once a tombstone has outlived every plausible
	// in-flight commit (its version check would fail anyway only within
	// an invocation window, not hours later) it is safe to forget: the
	// backing delete has long landed, so a read-through finds nothing
	// and a creating CAS starts from version 0. Zero keeps tombstones
	// forever (the pre-compaction behaviour).
	TombstoneTTL time.Duration
	// TombstoneGCInterval is the compaction sweep period. Defaults to
	// TombstoneTTL/4 (clamped to at least 1ms); ignored when
	// TombstoneTTL is zero.
	TombstoneGCInterval time.Duration
	// Degraded reports whether the backing store is currently
	// unavailable (the platform wires it to the store's circuit
	// breaker). While it returns true, cache hits are additionally
	// counted as Stats.DegradedHits — reads the table kept serving
	// from memory while the store was down. nil means never degraded.
	Degraded func() bool
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeWriteBehind
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > 64 {
		// Every call tracks its shard set in one uint64 bitmask
		// (keysMask, opsMask); 64 shards is already far past lock
		// contention relief for any realistic key population.
		c.Shards = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.FlushBatchSize <= 0 {
		c.FlushBatchSize = 256
	}
	if c.TombstoneTTL > 0 && c.TombstoneGCInterval <= 0 {
		c.TombstoneGCInterval = c.TombstoneTTL / 4
		if c.TombstoneGCInterval < time.Millisecond {
			c.TombstoneGCInterval = time.Millisecond
		}
	}
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	return c
}

// shard is one partition of the table.
type shard struct {
	mu    sync.Mutex
	data  map[string]json.RawMessage
	dirty map[string]bool
	// flushing counts, per key, how many in-flight flush batches
	// contain it (the public Flush can overlap the background flusher,
	// so a bool would let one pass clear another's marker). deleted
	// holds keys removed while a containing batch was in flight, or
	// whose post-batch re-delete failed and awaits retry. The flusher
	// snapshots its batch outside the lock, so without this bookkeeping
	// a Delete landing mid-flush would be overwritten in the backing
	// store by an in-flight BatchPut, resurrecting the key.
	flushing map[string]int
	deleted  map[string]bool
	// vers tracks a monotonically increasing version per key, the
	// substrate of the optimistic-concurrency path: every committed
	// write (including deletes) bumps the key's version, read-throughs
	// seed it from the backing document's version, and
	// PutManyIfVersion validates against it. A key present in vers but
	// absent from data is a deletion tombstone — versioned reads treat
	// it as authoritatively deleted so a stale CAS cannot resurrect it.
	vers map[string]int64
	// tombs records when each deletion tombstone was created, so the
	// compactor can evict tombstones older than Config.TombstoneTTL.
	// Only populated when a TTL is configured (entries then exist
	// exactly for keys in vers but not in data, modulo a recreation
	// racing a sweep, which the sweep reconciles).
	tombs map[string]time.Time
}

// Table is the distributed in-memory hash table. It is safe for
// concurrent use.
type Table struct {
	cfg    Config
	shards []*shard

	closeOnce sync.Once
	closed    chan struct{}
	killed    atomic.Bool // suppresses the final flush (simulated crash)
	flushWake chan struct{}
	done      chan struct{} // flusher exited

	statsMu      sync.Mutex
	hits         int64
	misses       int64
	degradedHits int64
	flushes      int64
	flushDocs    int64
	tombEvicted  int64

	compactDone chan struct{} // tombstone compactor exited
}

// New creates a table. It returns an error when a persistent mode has
// no backing store.
func New(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode != ModeMemoryOnly && cfg.Backing == nil {
		return nil, fmt.Errorf("memtable: mode %v requires a backing store", cfg.Mode)
	}
	t := &Table{
		cfg:         cfg,
		shards:      make([]*shard, cfg.Shards),
		closed:      make(chan struct{}),
		flushWake:   make(chan struct{}, 1),
		done:        make(chan struct{}),
		compactDone: make(chan struct{}),
	}
	for i := range t.shards {
		t.shards[i] = &shard{
			data:     make(map[string]json.RawMessage),
			dirty:    make(map[string]bool),
			flushing: make(map[string]int),
			deleted:  make(map[string]bool),
			vers:     make(map[string]int64),
			tombs:    make(map[string]time.Time),
		}
	}
	if cfg.Mode == ModeWriteBehind {
		go t.flushLoop()
	} else {
		close(t.done)
	}
	if cfg.TombstoneTTL > 0 {
		go t.compactLoop()
	} else {
		close(t.compactDone)
	}
	return t, nil
}

// shardIndex returns the index of the shard owning key: an FNV-1a fold
// of the key modulo the shard count. The fold is inlined over the
// string, as in trigger.Bus.shardFor, so placement allocates nothing.
func (t *Table) shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(t.shards)))
}

// shardFor returns the shard owning key.
func (t *Table) shardFor(key string) *shard { return t.shards[t.shardIndex(key)] }

// keysMask returns the set of shards owning keys as a bitmask (valid
// because New caps Shards at 64), so a call can lock and unlock its
// shard set without allocating.
func (t *Table) keysMask(keys []string) uint64 {
	var mask uint64
	for _, k := range keys {
		mask |= 1 << uint(t.shardIndex(k))
	}
	return mask
}

// opsMask is keysMask over the keys of a commit.
func (t *Table) opsMask(ops map[string]CASOp) uint64 {
	var mask uint64
	for k := range ops {
		mask |= 1 << uint(t.shardIndex(k))
	}
	return mask
}

// lockMask locks every shard in mask in ascending index order. It is
// the table's one lock order: every call, read or write, locks all the
// shards of its keys together this way, which gives a multi-key read
// one snapshot and keeps concurrent multi-shard calls deadlock-free.
// unlockMask releases them.
func (t *Table) lockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

func (t *Table) unlockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// isClosed reports whether Close has been called.
func (t *Table) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// noteReads books cache read outcomes, additionally counting hits as
// degraded when the backing store is currently unavailable (reads the
// table kept serving from memory while the store was down).
func (t *Table) noteReads(hits, misses int64) {
	degraded := hits > 0 && t.cfg.Degraded != nil && t.cfg.Degraded()
	t.statsMu.Lock()
	t.hits += hits
	t.misses += misses
	if degraded {
		t.degradedHits += hits
	}
	t.statsMu.Unlock()
}

// read is the table's one read path. It serves every key it can from
// memory under the keys' shard set, so all hits come from one
// snapshot; reads the misses through in one kvstore.BatchGet (one
// read-latency charge per batch instead of one per key); and installs
// the fetched documents under the misses' shard set, where state a
// racing writer or deleter left meanwhile wins over the fetched copy.
// emit receives every key once with its value and version: a nil value
// means absent, and version 0 means the table has never seen the key.
func (t *Table) read(ctx context.Context, keys []string, emit func(key string, v json.RawMessage, ver int64)) error {
	if t.isClosed() {
		return ErrClosed
	}
	if len(keys) == 0 {
		return nil
	}
	var missing []string
	mask := t.keysMask(keys)
	t.lockMask(mask)
	for _, k := range keys {
		if !emitHeld(t.shardFor(k), k, emit) {
			missing = append(missing, k)
		}
	}
	t.unlockMask(mask)
	t.noteReads(int64(len(keys)-len(missing)), int64(len(missing)))
	if len(missing) == 0 {
		return nil
	}
	var docs map[string]kvstore.Document
	if t.cfg.Mode != ModeMemoryOnly {
		var err error
		if docs, err = t.cfg.Backing.BatchGet(ctx, missing); err != nil {
			return fmt.Errorf("memtable: batch read-through: %w", err)
		}
	}
	if len(docs) == 0 {
		for _, k := range missing {
			emit(k, nil, 0)
		}
		return nil
	}
	mask = t.keysMask(missing)
	t.lockMask(mask)
	for _, k := range missing {
		sh := t.shardFor(k)
		if emitHeld(sh, k, emit) {
			continue
		}
		doc, ok := docs[k]
		if !ok {
			emit(k, nil, 0)
			continue
		}
		v := doc.Value
		if v == nil {
			v = json.RawMessage{} // a stored empty value is present, not absent
		}
		sh.data[k] = v
		sh.vers[k] = doc.Version
		emit(k, v, doc.Version)
	}
	t.unlockMask(mask)
	return nil
}

// emitHeld emits key's in-memory state, its value or its deletion
// tombstone, and reports whether there was any. The caller holds the
// shard's lock.
func emitHeld(sh *shard, key string, emit func(string, json.RawMessage, int64)) bool {
	if v, ok := sh.data[key]; ok {
		emit(key, v, sh.vers[key])
		return true
	}
	if ver, ok := sh.vers[key]; ok {
		// Deletion tombstone: the key is authoritatively deleted.
		// Reading through would resurrect a stale backing copy (the
		// backing delete may still be retrying) and re-arm the key's
		// version for optimistic commits.
		emit(key, nil, ver)
		return true
	}
	return false
}

// Get returns the value for key, reading through to the backing store
// on a miss (and caching the result). It returns ErrNotFound when the
// key exists neither in memory nor in the backing store.
func (t *Table) Get(ctx context.Context, key string) (json.RawMessage, error) {
	var val json.RawMessage
	if err := t.read(ctx, []string{key}, func(_ string, v json.RawMessage, _ int64) { val = v }); err != nil {
		return nil, err
	}
	if val == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return val, nil
}

// GetMany returns the values for keys in one read: every hit comes
// from one snapshot, and backing-store misses are consolidated into a
// single kvstore.BatchGet round trip. Keys found in neither place are
// simply absent from the result map — batch callers resolve defaults
// themselves, so absence is not an error, unlike Get's ErrNotFound.
func (t *Table) GetMany(ctx context.Context, keys []string) (map[string]json.RawMessage, error) {
	if len(keys) == 0 {
		if t.isClosed() {
			return nil, ErrClosed
		}
		return nil, nil
	}
	out := make(map[string]json.RawMessage, len(keys))
	if err := t.GetManyInto(ctx, keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetManyInto is GetMany writing into a caller-supplied map, so a hot
// caller can reuse one map across reads instead of allocating per
// call. Existing entries of out are left in place (callers reusing a
// map clear it between reads). Values are read-only views aliasing
// table memory: callers must not mutate them — the table clones on
// every write, never on reads.
func (t *Table) GetManyInto(ctx context.Context, keys []string, out map[string]json.RawMessage) error {
	return t.read(ctx, keys, func(k string, v json.RawMessage, _ int64) {
		if v != nil {
			out[k] = v
		}
	})
}

// VersionedValue couples a state value with the table version it was
// read at. A nil Value means the key is absent; Version 0 means the
// table has never seen the key (the expectation a creating CAS uses).
type VersionedValue struct {
	Value   json.RawMessage
	Version int64
}

// GetManyVersioned is GetMany for the optimistic-concurrency path:
// every requested key appears in the result with its current version,
// so a later PutManyIfVersion can validate the whole read set. Keys
// whose deletion tombstone is still tracked report their tombstone
// version with a nil value (reading through would let a stale commit
// resurrect them); keys found nowhere report {nil, 0}.
func (t *Table) GetManyVersioned(ctx context.Context, keys []string) (map[string]VersionedValue, error) {
	if len(keys) == 0 {
		if t.isClosed() {
			return nil, ErrClosed
		}
		return nil, nil
	}
	out := make(map[string]VersionedValue, len(keys))
	if err := t.GetManyVersionedInto(ctx, keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetManyVersionedInto is GetManyVersioned writing into a
// caller-supplied map, so a hot caller can reuse one map across reads
// instead of allocating per call. Existing entries of out are left in
// place (callers reusing a map clear it between reads). Values are
// read-only views aliasing table memory: callers must not mutate
// them — the table clones on every write, never on reads.
func (t *Table) GetManyVersionedInto(ctx context.Context, keys []string, out map[string]VersionedValue) error {
	return t.read(ctx, keys, func(k string, v json.RawMessage, ver int64) {
		out[k] = VersionedValue{Value: v, Version: ver}
	})
}

// Put stores value at key: a one-key unconditional commit through
// PutManyIfVersion. In write-through mode the backing write is
// synchronous; in write-behind mode the key is marked dirty for the
// flusher.
func (t *Table) Put(ctx context.Context, key string, value json.RawMessage) error {
	return t.PutManyIfVersion(ctx, map[string]CASOp{key: putOp(value)})
}

// PutMany stores every entry in one unconditional commit through
// PutManyIfVersion. In write-through mode the backing write is one
// consolidated BatchPut (charged as a single write operation); in
// write-behind mode all keys are marked dirty for the flusher.
func (t *Table) PutMany(ctx context.Context, entries map[string]json.RawMessage) error {
	ops := make(map[string]CASOp, len(entries))
	for k, v := range entries {
		ops[k] = putOp(v)
	}
	return t.PutManyIfVersion(ctx, ops)
}

// putOp is the commit op of an unconditional write of v. A nil Value
// deletes in a CASOp, so a nil v is written as the empty value: Put of
// an empty body stays a put.
func putOp(v json.RawMessage) CASOp {
	if v == nil {
		v = json.RawMessage{}
	}
	return CASOp{Expect: AnyVersion, Value: v, Write: true}
}

// Delete removes key from memory and, in persistent modes, from the
// backing store: a one-key unconditional delete through the commit
// step of PutManyIfVersion. It leaves a version tombstone behind, and
// a failing backing delete changes nothing — unless an in-flight flush
// batch holds the key, in which case the deletion lands anyway and the
// flusher persists it (see commit); Delete still returns the failure,
// as the backing store has not caught up yet.
func (t *Table) Delete(ctx context.Context, key string) error {
	pending, err := t.commit(ctx, map[string]CASOp{key: {Expect: AnyVersion, Write: true}})
	if err != nil {
		return err
	}
	return pending
}

// CASOp is one key's part of a PutManyIfVersion commit.
type CASOp struct {
	// Expect is the version the caller observed via GetManyVersioned
	// (0 for a key the table has never seen). AnyVersion skips
	// validation for this key.
	Expect int64
	// Value is the new value; nil deletes the key. Ignored unless
	// Write is set.
	Value json.RawMessage
	// Write commits Value after validation. Ops with Write false are
	// read-set checks: the commit fails if the key changed, but the
	// key is not written.
	Write bool
}

// clone copies v into table-owned memory. The copy of an empty value
// is empty but non-nil, because a nil value means absent.
func clone(v json.RawMessage) json.RawMessage {
	return append(make(json.RawMessage, 0, len(v)), v...)
}

// PutManyIfVersion is the table's one write path: Put, PutMany and
// Delete are commits of AnyVersion ops through it. It atomically
// validates every op's expected version and, only if all match,
// commits the write ops (bumping each written key's version). It is
// the table-level realization of optimistic concurrency: the
// validation mirrors kvstore.CompareAndPut semantics (same
// ErrVersionMismatch sentinel) but runs at the cache — the
// serialization point every write flows through — while persistence
// keeps the consolidated batch economics: write-through commits land
// as a single kvstore.BatchPut under the shard locks, and write-behind
// commits are picked up by the flusher's BatchPut.
//
// All involved shards are locked for the duration (ascending-index
// order, like every table call). When it returns an error
// (ErrVersionMismatch or a backing failure) nothing is committed.
// Deletes (write ops with a nil Value) leave a version tombstone so
// stale optimistic commits cannot resurrect the key, and reach the
// backing store in every persistent mode.
func (t *Table) PutManyIfVersion(ctx context.Context, ops map[string]CASOp) error {
	_, err := t.commit(ctx, ops)
	return err
}

// commit is the commit step behind PutManyIfVersion. One backing
// failure does not abort it: a failed delete of a key that an in-flight
// write-behind flush batch holds. That batch re-creates the key in the
// store whatever the direct delete does, and the flusher re-deletes the
// key once the batch lands, retrying until it succeeds, so the
// deletion commits and the failure comes back as pending.
func (t *Table) commit(ctx context.Context, ops map[string]CASOp) (pending, err error) {
	if t.isClosed() {
		return nil, ErrClosed
	}
	if len(ops) == 0 {
		return nil, nil
	}
	mask := t.opsMask(ops)
	t.lockMask(mask)
	unlock := func() { t.unlockMask(mask) }
	for k, op := range ops {
		if op.Expect == AnyVersion {
			continue
		}
		if cur := t.shardFor(k).vers[k]; cur != op.Expect {
			unlock()
			return nil, fmt.Errorf("%w: key %q at version %d, expected %d",
				ErrVersionMismatch, k, cur, op.Expect)
		}
	}
	// Written values are cloned before they reach a shard (or the
	// backing store): the ops map and its values belong to the caller —
	// typically a pooled commit scratch — and must never be aliased by
	// table memory. Write-through collects the clones into a batch map
	// (the backing API needs one); write-behind clones straight into
	// the per-shard commit below and skips the map.
	var puts map[string]json.RawMessage
	if t.cfg.Mode == ModeWriteThrough {
		for k, op := range ops {
			if op.Write && op.Value != nil {
				if puts == nil {
					puts = make(map[string]json.RawMessage, len(ops))
				}
				puts[k] = clone(op.Value)
			}
		}
	}
	// Backing I/O happens before the in-memory commit, still under the
	// shard locks, so the validation window covers it: a backing
	// failure commits nothing (versions unchanged, the caller simply
	// retries; a pending delete is the one exception), and no other write can interleave between this
	// commit's memory state and its backing state — two writes of one
	// key land in the same order in both, and a delayed post-unlock
	// Backing.Delete cannot erase a key a later commit had already
	// recreated and persisted. Deletes go first; they are idempotent if
	// a following put batch fails.
	if t.cfg.Mode != ModeMemoryOnly {
		for k, op := range ops {
			if !op.Write || op.Value != nil {
				continue
			}
			if err := t.cfg.Backing.Delete(ctx, k); err != nil {
				err = fmt.Errorf("memtable: delete: %w", err)
				if t.shardFor(k).flushing[k] == 0 {
					unlock()
					return nil, err
				}
				pending = err
			}
		}
	}
	if t.cfg.Mode == ModeWriteThrough && len(puts) > 0 {
		if err := t.cfg.Backing.BatchPut(ctx, puts); err != nil {
			unlock()
			return nil, fmt.Errorf("memtable: batch write-through: %w", err)
		}
	}
	wake := false
	for k, op := range ops {
		if !op.Write {
			continue
		}
		sh := t.shardFor(k)
		if op.Value == nil {
			delete(sh.data, k)
			delete(sh.dirty, k)
			sh.vers[k]++
			if t.cfg.TombstoneTTL > 0 {
				sh.tombs[k] = t.cfg.Clock.Now()
			}
			if sh.flushing[k] > 0 {
				// The key is in a flush batch already snapshotted: the
				// in-flight BatchPut would re-create it in the backing
				// store after the delete above. Record it so the
				// flusher re-deletes once the last containing batch
				// lands.
				sh.deleted[k] = true
			}
			continue
		}
		v, cloned := puts[k]
		if !cloned {
			v = clone(op.Value)
		}
		sh.data[k] = v
		sh.vers[k]++
		delete(sh.deleted, k) // a write supersedes a pending tombstone
		delete(sh.tombs, k)
		if t.cfg.Mode == ModeWriteBehind {
			sh.dirty[k] = true
			if len(sh.dirty) >= t.cfg.FlushBatchSize {
				wake = true
			}
		}
	}
	unlock()
	if wake {
		select {
		case t.flushWake <- struct{}{}:
		default:
		}
	}
	return pending, nil
}

// flushLoop periodically consolidates dirty keys into batch writes.
func (t *Table) flushLoop() {
	defer close(t.done)
	for {
		select {
		case <-t.closed:
			if t.killed.Load() {
				// Simulated crash: abandon dirty entries unflushed.
				return
			}
			// Final synchronous flush so Close is durable.
			t.flushAll(context.Background())
			return
		case <-t.flushWake:
		case <-t.cfg.Clock.After(t.cfg.FlushInterval):
		}
		t.flushAll(context.Background())
	}
}

// flushAll writes every dirty key, one consolidated batch per shard,
// then re-deletes keys whose Delete raced an in-flight batch (the
// BatchPut would otherwise have resurrected them in the backing
// store). Failed re-deletes stay in the shard's deleted set and are
// retried on the next pass, so a transient backing failure cannot
// permanently resurrect a deleted key. A failed batch ends the pass:
// the store is failing, so the remaining shards' batches would most
// likely fail too, and their keys stay dirty for the next pass.
func (t *Table) flushAll(ctx context.Context) {
	for _, sh := range t.shards {
		sh.mu.Lock()
		// Collect tombstones awaiting retry (their batch has already
		// landed; only the backing delete is outstanding). A key
		// re-created since its deletion drops the tombstone: the fresh
		// value supersedes the delete.
		var redelete []string
		for k := range sh.deleted {
			if _, live := sh.data[k]; live {
				delete(sh.deleted, k)
				continue
			}
			if sh.flushing[k] == 0 {
				delete(sh.deleted, k)
				redelete = append(redelete, k)
			}
		}
		if len(sh.dirty) == 0 && len(redelete) == 0 {
			sh.mu.Unlock()
			continue
		}
		batch := make(map[string]json.RawMessage, len(sh.dirty))
		for k := range sh.dirty {
			batch[k] = sh.data[k]
			sh.flushing[k]++
		}
		sh.dirty = make(map[string]bool)
		sh.mu.Unlock()
		var err error
		if len(batch) > 0 {
			err = t.cfg.Backing.BatchPut(ctx, batch)
		}
		sh.mu.Lock()
		for k := range batch {
			if sh.flushing[k]--; sh.flushing[k] <= 0 {
				delete(sh.flushing, k)
			}
			// Consume the tombstone only once the LAST containing batch
			// has landed: an earlier-completing overlapping batch must
			// leave it for the one still in flight.
			if sh.deleted[k] && sh.flushing[k] == 0 {
				delete(sh.deleted, k)
				redelete = append(redelete, k)
			}
			if err != nil && !sh.dirty[k] {
				// Mark the key dirty again so no update is lost; it
				// will be retried on the next flush tick. Keys deleted
				// while the failed batch was in flight stay deleted.
				if _, live := sh.data[k]; live {
					sh.dirty[k] = true
				}
			}
		}
		sh.mu.Unlock()
		if err != nil {
			// The batch never landed, so it resurrected nothing; put
			// the tombstones back for the retry pass alongside it.
			sh.mu.Lock()
			for _, k := range redelete {
				if _, live := sh.data[k]; !live {
					sh.deleted[k] = true
				}
			}
			sh.mu.Unlock()
			return
		}
		for _, k := range redelete {
			if derr := t.cfg.Backing.Delete(ctx, k); derr != nil {
				// Keep the tombstone so the next pass retries, unless
				// the key has been re-created meanwhile.
				sh.mu.Lock()
				if _, live := sh.data[k]; !live {
					sh.deleted[k] = true
				}
				sh.mu.Unlock()
			}
		}
		if len(batch) > 0 {
			t.statsMu.Lock()
			t.flushes++
			t.flushDocs += int64(len(batch))
			t.statsMu.Unlock()
		}
	}
}

// compactLoop periodically evicts expired deletion tombstones.
func (t *Table) compactLoop() {
	defer close(t.compactDone)
	for {
		select {
		case <-t.closed:
			return
		case <-t.cfg.Clock.After(t.cfg.TombstoneGCInterval):
		}
		t.CompactTombstones()
	}
}

// CompactTombstones evicts every deletion tombstone older than
// Config.TombstoneTTL: the key's version entry (and its timestamp) is
// forgotten, returning the shard to its pre-key footprint. Tombstones
// whose backing delete is still outstanding (mid-flush, or awaiting a
// re-delete retry) are kept — evicting them would let a read-through
// resurrect the key from the stale backing copy. Evictions are counted
// in Stats().TombstonesEvicted. Called by the background compactor
// when a TTL is configured; exported so churn tests (and operators)
// can force a sweep.
func (t *Table) CompactTombstones() {
	if t.cfg.TombstoneTTL <= 0 {
		return
	}
	cutoff := t.cfg.Clock.Now().Add(-t.cfg.TombstoneTTL)
	var evicted int64
	for _, sh := range t.shards {
		sh.mu.Lock()
		for k, at := range sh.tombs {
			if _, live := sh.data[k]; live {
				// Recreated since the deletion: the timestamp is stale
				// bookkeeping, the version entry stays (it guards the
				// live value).
				delete(sh.tombs, k)
				continue
			}
			if at.After(cutoff) || sh.flushing[k] > 0 || sh.deleted[k] {
				continue
			}
			delete(sh.vers, k)
			delete(sh.tombs, k)
			evicted++
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		t.statsMu.Lock()
		t.tombEvicted += evicted
		t.statsMu.Unlock()
	}
}

// TombstoneCount returns the number of tracked deletion tombstones
// (churn-test observability).
func (t *Table) TombstoneCount() int {
	var n int
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += len(sh.tombs)
		sh.mu.Unlock()
	}
	return n
}

// Flush synchronously persists all dirty entries (no-op outside
// write-behind mode).
func (t *Table) Flush(ctx context.Context) {
	if t.cfg.Mode == ModeWriteBehind {
		t.flushAll(ctx)
	}
}

// DirtyCount returns the number of keys awaiting flush.
func (t *Table) DirtyCount() int {
	var n int
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += len(sh.dirty)
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of in-memory entries.
func (t *Table) Len() int {
	var n int
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += len(sh.data)
		sh.mu.Unlock()
	}
	return n
}

// Close stops the flusher (after a final flush) and the tombstone
// compactor, and marks the table closed. It blocks until both exit.
func (t *Table) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	<-t.done
	<-t.compactDone
}

// Kill stops the table WITHOUT the final flush, modeling process
// death: dirty write-behind entries are abandoned exactly as a crash
// would abandon them. The crash/replay tests use it to assert what
// recovery owes after an unclean shutdown.
func (t *Table) Kill() {
	t.killed.Store(true)
	t.Close()
}

// Stats is a point-in-time view of cache behaviour.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Flushes   int64 `json:"flushes"`
	FlushDocs int64 `json:"flush_docs"`
	// DegradedHits counts cache hits served while Config.Degraded
	// reported the backing store unavailable — the reads degraded mode
	// kept answering from memory.
	DegradedHits int64 `json:"degraded_hits"`
	// TombstonesEvicted counts deletion tombstones compacted after
	// Config.TombstoneTTL elapsed.
	TombstonesEvicted int64 `json:"tombstones_evicted"`
}

// Stats returns counters since New.
func (t *Table) Stats() Stats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return Stats{Hits: t.hits, Misses: t.misses, Flushes: t.flushes, FlushDocs: t.flushDocs,
		DegradedHits: t.degradedHits, TombstonesEvicted: t.tombEvicted}
}

// Mode returns the configured persistence mode.
func (t *Table) Mode() Mode { return t.cfg.Mode }
