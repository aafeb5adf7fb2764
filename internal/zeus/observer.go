package zeus

import (
	"sync"
	"time"

	"configerator/internal/intern"
	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// batchScratch is the per-applyBatch working state (touched-path bases,
// final updates, touch order). Batches arrive on every commit wave across
// every observer in the fleet, so the maps are pooled rather than
// reallocated per batch; only scratch lives here — everything a watch
// event retains is copied out before the scratch is recycled.
type batchScratch struct {
	base  map[string]content
	final map[string]Update
	order []string
}

// content is one version's bytes with the hash recorded when they were
// materialized, so later payloads can name the version without rehashing.
// A zero content (nil data) means the path held no record.
type content struct {
	data []byte
	hash uint64
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		base:  make(map[string]content),
		final: make(map[string]Update),
	}
}}

func (s *batchScratch) release() {
	for k := range s.base {
		delete(s.base, k)
	}
	for k := range s.final {
		delete(s.final, k)
	}
	s.order = s.order[:0]
	batchScratchPool.Put(s)
}

// syncUpdatesPool recycles the Update slices built while decoding observer
// catch-up syncs (applyBatch does not retain the slice).
var syncUpdatesPool = sync.Pool{New: func() any {
	s := make([]Update, 0, 64)
	return &s
}}

// watchSessionTTL expires a proxy's watch registrations when the proxy
// stops talking to this observer (crashed, or failed over to another
// observer without an explicit unwatch). Healthy proxies ping their
// observer every ~2 s, so four missed intervals means the session is dead;
// without this sweep, every crashed proxy would leak its watch set here
// forever and keep receiving (dropped) events.
const watchSessionTTL = 8 * time.Second

// watchSet tracks the proxies watching one path in registration order.
// Notification order must be deterministic — each recipient's latency
// sample comes from the shared RNG, so map iteration order would make
// otherwise-identical runs diverge (the PR 8 bug class) — and sorting
// 100k watchers on every event is too dear, so registration order it is.
// Removals (failover unwatch, session prune) just drop the member and
// leave a hole in the order slice; holes are compacted lazily once they
// outnumber the live entries.
type watchSet struct {
	order   []simnet.NodeID
	members map[simnet.NodeID]bool
}

func newWatchSet() *watchSet {
	return &watchSet{members: make(map[simnet.NodeID]bool)}
}

func (w *watchSet) add(id simnet.NodeID) {
	if w.members[id] {
		return
	}
	w.members[id] = true
	w.order = append(w.order, id)
}

func (w *watchSet) remove(id simnet.NodeID) {
	delete(w.members, id)
}

// live appends the current members in registration order to buf and
// compacts the order slice when removals have left it mostly holes.
func (w *watchSet) live(buf []simnet.NodeID) []simnet.NodeID {
	buf = buf[:0]
	for _, id := range w.order {
		if w.members[id] {
			buf = append(buf, id)
		}
	}
	if len(w.order) > 2*len(buf)+8 {
		w.order = append(w.order[:0], buf...)
	}
	return buf
}

// Observer keeps a fully replicated read-only copy of the leader's data
// (§3.4). Each cluster runs several observers; the leader pushes committed
// writes to them asynchronously, and proxies in the cluster fetch configs
// from an observer and leave watches so that later updates are pushed the
// rest of the way down the tree.
type Observer struct {
	id      simnet.NodeID
	members []simnet.NodeID
	tree    *DataTree
	// watches maps path -> the ordered set of proxies to notify on change.
	watches map[string]*watchSet
	// notifyScratch is the reusable live-watcher list handed to Broadcast.
	notifyScratch []simnet.NodeID
	// prev holds each path's content (and its hash) as of the version
	// before the current one: the base a proxy that is exactly one version
	// behind advertises, and therefore the base worth delta-encoding fetch
	// replies against.
	prev map[string]content
	// lastContact tracks when each watching proxy last pinged or fetched;
	// silent proxies have their watch sessions pruned (watchSessionTTL).
	lastContact map[simnet.NodeID]time.Time

	deltaEncoding bool

	// Notified counts watch events pushed (observability for benches).
	Notified uint64

	// Obs, when set, receives a propagation event for every op this
	// observer applies (nil = no instrumentation).
	Obs *obs.Registry
}

// NewObserver constructs an observer attached to the given ensemble
// member list.
func NewObserver(id simnet.NodeID, members []simnet.NodeID) *Observer {
	return &Observer{
		id:            id,
		members:       members,
		tree:          NewDataTree(),
		watches:       make(map[string]*watchSet),
		prev:          make(map[string]content),
		lastContact:   make(map[simnet.NodeID]time.Time),
		deltaEncoding: true,
	}
}

// Tree exposes the observer's replica (tests/benches).
func (o *Observer) Tree() *DataTree { return o.tree }

// WatchCount reports how many proxies watch the given path.
func (o *Observer) WatchCount(path string) int {
	if set := o.watches[path]; set != nil {
		return len(set.members)
	}
	return 0
}

// SetDeltaEncoding toggles delta-encoded watch events and fetch replies.
func (o *Observer) SetDeltaEncoding(on bool) { o.deltaEncoding = on }

// OnRestart implements simnet.Restarter: a recovered observer immediately
// re-registers (requesting catch-up from its last zxid) and re-arms its
// periodic registration timer.
func (o *Observer) OnRestart(ctx *simnet.Context) {
	o.register(ctx)
	ctx.SetTimer(observerRegisterGap, msgTickObserver{})
}

// register broadcasts a registration to all ensemble members; only the
// current leader responds and adds us to its push set. Broadcasting keeps
// the observer attached across leader failover without tracking epochs.
// It doubles as the delta hash-miss fallback: re-registering with our last
// zxid makes the leader re-ship everything after it as full snapshots.
func (o *Observer) register(ctx *simnet.Context) {
	for _, m := range o.members {
		ctx.Send(m, msgObserverRegister{LastZxid: o.tree.LastZxid()})
	}
}

// HandleMessage implements simnet.Handler.
func (o *Observer) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case msgTickObserver:
		o.register(ctx)
		o.pruneWatchSessions(ctx)
		ctx.SetTimer(observerRegisterGap, msgTickObserver{})
	case msgObserverSync:
		// Catch-up ops arrive as full snapshots; run them through the same
		// coalescing apply path as live pushes. Sync ops carry no content
		// hash, so Resolve computes each one's identity (unhashed). The
		// decoded slice is pooled scratch — applyBatch copies out anything
		// it keeps.
		up := syncUpdatesPool.Get().(*[]Update)
		updates := (*up)[:0]
		for _, op := range m.Ops {
			u := Update{Path: op.Path, Version: op.Version, Zxid: op.Zxid, Delete: op.Delete}
			if !op.Delete {
				u.Payload = Payload{Full: op.Data, unhashed: true}
			}
			updates = append(updates, u)
		}
		o.applyBatch(ctx, updates)
		for i := range updates {
			updates[i] = Update{} // drop payload references before pooling
		}
		*up = updates[:0]
		syncUpdatesPool.Put(up)
	case msgObserverBatch:
		o.applyBatch(ctx, m.Updates)
	case MsgFetch:
		o.onFetch(ctx, from, m)
	case MsgUnwatch:
		if set := o.watches[m.Path]; set != nil {
			set.remove(from)
			if len(set.members) == 0 {
				delete(o.watches, m.Path)
			}
		}
	case MsgPing:
		o.lastContact[from] = ctx.Now()
		ctx.Send(from, MsgPong{ReqID: m.ReqID})
	}
}

// pruneWatchSessions drops watch registrations (and contact records) for
// proxies that have been silent past watchSessionTTL — crashed, or failed
// over to another observer. This is the observer-side half of the
// watch-session leak fix; the proxy also unwatches eagerly on failover.
func (o *Observer) pruneWatchSessions(ctx *simnet.Context) {
	now := ctx.Now()
	var dead []simnet.NodeID
	for proxy, seen := range o.lastContact {
		if now.Sub(seen) > watchSessionTTL {
			dead = append(dead, proxy)
		}
	}
	for _, proxy := range dead {
		delete(o.lastContact, proxy)
		for path, set := range o.watches {
			if set.members[proxy] {
				set.remove(proxy)
				o.Obs.Add("zeus.observer.watch_pruned", 1)
			}
			if len(set.members) == 0 {
				delete(o.watches, path)
			}
		}
	}
}

// applyBatch applies one commit run in zxid order and then notifies
// watchers once per touched path — rapid successive writes to one path
// coalesce into a single watch event carrying the final version. A delta
// that fails to apply (hash miss: this observer's base diverged, e.g. it
// restarted mid-stream) or a payload whose bytes miss NewHash aborts the
// batch and falls back to a full-snapshot resync via re-registration. Each
// version is hashed once, by Resolve; the record, the prev base and the
// outgoing watch payloads all carry that hash.
func (o *Observer) applyBatch(ctx *simnet.Context, updates []Update) {
	// base holds each touched path's content before this batch — the
	// version watchers last saw, hence the delta base for their event.
	// All three structures are pooled scratch; nothing in them survives
	// this call.
	scratch := batchScratchPool.Get().(*batchScratch)
	defer scratch.release()
	base, final := scratch.base, scratch.final
	order := scratch.order
	defer func() { scratch.order = order }() // keep the grown capacity pooled
	for _, u := range updates {
		if u.Zxid <= o.tree.LastZxid() {
			continue // duplicate or stale (e.g. overlapping sync)
		}
		u.Path = intern.Path(u.Path)
		var old content
		if rec := o.tree.Get(u.Path); rec != nil {
			old = content{data: rec.Data, hash: rec.Hash}
		}
		var newData []byte
		var newHash uint64
		if !u.Delete {
			var err error
			newData, newHash, err = u.Payload.Resolve(old.data, old.hash)
			if err != nil {
				o.Obs.Add("zeus.observer.delta_miss", 1)
				o.register(ctx)
				break // resync re-ships this zxid onward as full snapshots
			}
		}
		op := WriteOp{Zxid: u.Zxid, Path: u.Path, Data: newData, Version: u.Version, Delete: u.Delete}
		if !o.tree.ApplyHashed(op, newHash) {
			continue
		}
		o.prev[u.Path] = old
		o.Obs.PathEvent(u.Path, obs.PropEvent{
			Stage: obs.EvObserverApply, Node: string(o.id), Zxid: u.Zxid, At: ctx.Now(),
		})
		if _, seen := final[u.Path]; !seen {
			base[u.Path] = old
			order = append(order, u.Path)
		} else {
			o.Obs.Add("zeus.observer.coalesced", 1)
		}
		final[u.Path] = u
	}
	for _, path := range order {
		set := o.watches[path]
		if set == nil || len(set.members) == 0 {
			continue
		}
		u := final[path]
		ev := MsgWatchEvent{Update: Update{Path: path, Version: u.Version, Zxid: u.Zxid, Delete: u.Delete}}
		if !u.Delete {
			rec, b := o.tree.Get(path), base[path]
			ev.Payload = MakePayload(b.data, b.hash, rec.Data, rec.Hash, o.deltaEncoding && b.data != nil)
		}
		// One shared payload, serialization charged once for the wave,
		// recipients in registration order (deterministic — see watchSet).
		o.notifyScratch = set.live(o.notifyScratch)
		ctx.Broadcast(o.notifyScratch, ev, ev.Update.WireSize())
		o.Notified += uint64(len(o.notifyScratch))
	}
}

// onFetch answers a proxy's pull. The proxy advertises the hash of the
// content it already holds, so the reply is the cheapest of: "not
// modified", a delta against the previous version, or a full snapshot. The
// advertised hash is compared with the hashes recorded for the current and
// previous versions; no bytes are rehashed.
func (o *Observer) onFetch(ctx *simnet.Context, from simnet.NodeID, m MsgFetch) {
	o.lastContact[from] = ctx.Now()
	if m.Watch {
		set, ok := o.watches[m.Path]
		if !ok {
			set = newWatchSet()
			o.watches[intern.Path(m.Path)] = set
		}
		set.add(from)
	}
	reply := MsgFetchReply{ReqID: m.ReqID, Path: m.Path}
	if rec := o.tree.Get(m.Path); rec != nil {
		reply.Exists = true
		reply.Version = rec.Version
		reply.Zxid = rec.Zxid
		prev := o.prev[m.Path]
		switch {
		case m.Have && m.HaveHash == rec.Hash:
			reply.NotModified = true
			o.Obs.Add("zeus.fetch.not_modified", 1)
		case m.Have && o.deltaEncoding && prev.data != nil && m.HaveHash == prev.hash:
			reply.Payload = MakePayload(prev.data, prev.hash, rec.Data, rec.Hash, true)
			if reply.Payload.IsDelta {
				o.Obs.Add("zeus.fetch.delta", 1)
			} else {
				o.Obs.Add("zeus.fetch.full", 1)
			}
		default:
			reply.Payload = MakePayload(nil, 0, rec.Data, rec.Hash, false)
			o.Obs.Add("zeus.fetch.full", 1)
		}
	}
	ctx.SendSized(from, reply, reply.WireSize())
}
