// Package zeus implements this repository's version of Zeus — Facebook's
// forked ZooKeeper (§3.4) — as deterministic state machines on simnet.
//
// An ensemble of servers distributed across regions runs a ZAB-style
// quorum-commit protocol: the leader assigns monotonically increasing zxids
// to writes, proposes them to followers, commits on quorum ack, and the
// commit log guarantees in-order delivery of config changes. If the leader
// fails, a follower is converted into a new leader. Each cluster designates
// observer servers that keep fully replicated read-only copies of the
// leader's data and receive committed writes asynchronously; per-server
// proxies connect to observers and set watches, forming the three-level
// leader→observer→proxy high-fanout push tree.
package zeus

import (
	"sort"
	"time"

	"configerator/internal/intern"
	"configerator/internal/vcs"
)

// Record is one versioned path in the data tree.
type Record struct {
	Path    string
	Data    []byte
	Version int64  // per-path version, starts at 1
	Zxid    int64  // global transaction id of the last write
	Hash    uint64 // content hash of Data (vcs.HashBytes)
	// At is when the leader accepted the write (virtual time). Followers
	// and observers that rebuild ops from pushes may not carry it; the
	// authoritative copy lives in the leader's tree, which is where
	// convergence watermarks are read.
	At time.Time
}

// WriteOp is one committed write in the global log. Replicas apply ops in
// zxid order, which is what gives every server the same eventual view in
// the same order (§3.4 data consistency).
type WriteOp struct {
	Zxid    int64
	Path    string
	Data    []byte
	Version int64
	Delete  bool
	// At is the leader-assigned accept time, stamped in onWrite so it is
	// identical on every replica the proposal or sync reaches.
	At time.Time
}

// DataTree is the replicated path→record store.
type DataTree struct {
	records map[string]*Record
	log     []WriteOp
	applied int64 // highest zxid applied
}

// NewDataTree returns an empty tree.
func NewDataTree() *DataTree {
	return &DataTree{records: make(map[string]*Record)}
}

// Apply applies one op if it is newer than anything applied; stale or
// duplicate ops (zxid <= applied) are ignored, making Apply idempotent.
// The record's content hash is computed from op.Data.
func (t *DataTree) Apply(op WriteOp) bool { return t.apply(op, 0, false) }

// ApplyHashed is Apply for a caller that already holds the verified content
// hash of op.Data (an observer that just resolved a payload): the record
// stores hash instead of rehashing the bytes.
func (t *DataTree) ApplyHashed(op WriteOp, hash uint64) bool { return t.apply(op, hash, true) }

func (t *DataTree) apply(op WriteOp, hash uint64, hashed bool) bool {
	if op.Zxid <= t.applied {
		return false
	}
	// Canonicalize the path: every replica's records, log, and watch tables
	// key by the same shared string instance instead of per-message copies.
	op.Path = intern.Path(op.Path)
	t.applied = op.Zxid
	t.log = append(t.log, op)
	if op.Delete {
		delete(t.records, op.Path)
		return true
	}
	data := make([]byte, len(op.Data))
	copy(data, op.Data)
	if !hashed {
		hash = vcs.HashBytes(data)
	}
	t.records[op.Path] = &Record{Path: op.Path, Data: data, Version: op.Version,
		Zxid: op.Zxid, Hash: hash, At: op.At}
	return true
}

// Watermark is the committed high-water mark of one path: the (zxid,
// content-hash) pair a fully-converged replica must serve, plus the
// leader accept time the convergence monitor measures time-to-head
// against.
type Watermark struct {
	Path    string
	Zxid    int64
	Version int64
	Hash    uint64
	At      time.Time
}

// Watermarks exports the committed high-water mark of every live path,
// sorted by path — the monitor's per-sweep view of "where the fleet
// should be".
func (t *DataTree) Watermarks() []Watermark {
	out := make([]Watermark, 0, len(t.records))
	for _, r := range t.records {
		out = append(out, Watermark{Path: r.Path, Zxid: r.Zxid,
			Version: r.Version, Hash: r.Hash, At: r.At})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Get returns the record at path (nil if absent).
func (t *DataTree) Get(path string) *Record { return t.records[path] }

// NextVersion returns the version the next write to path should carry.
func (t *DataTree) NextVersion(path string) int64 {
	if r := t.records[path]; r != nil {
		return r.Version + 1
	}
	return 1
}

// LastZxid reports the highest applied zxid.
func (t *DataTree) LastZxid() int64 { return t.applied }

// OpsAfter returns committed ops with zxid > after, in order — the
// observer catch-up path.
func (t *DataTree) OpsAfter(after int64) []WriteOp {
	// The log is in zxid order; binary search for the cut point.
	i := sort.Search(len(t.log), func(i int) bool { return t.log[i].Zxid > after })
	out := make([]WriteOp, len(t.log)-i)
	copy(out, t.log[i:])
	return out
}

// Paths returns all live paths, sorted (for tests).
func (t *DataTree) Paths() []string {
	out := make([]string, 0, len(t.records))
	for p := range t.records {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Size reports the number of live paths.
func (t *DataTree) Size() int { return len(t.records) }
