package zeus

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
)

// TestGroupCommitBatchesWaves checks the tentpole mechanism: a burst of
// concurrent writes coalesces into far fewer proposal waves than writes,
// and every write still commits with sequential versions.
func TestGroupCommitBatchesWaves(t *testing.T) {
	net, e := testDeployment(t, 31)
	reg := obs.New()
	e.SetObs(reg)
	c := addClient(net, e, "tailer")

	const n = 40
	committed := 0
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		for i := 0; i < n; i++ {
			c.Write(&ctx, fmt.Sprintf("/burst/cfg-%d", i), []byte("x"), func(WriteResult) { committed++ })
		}
	})
	net.RunFor(30 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	waves := reg.Counters().Get("zeus.propose.waves")
	if waves <= 0 || waves >= n/2 {
		t.Errorf("proposal waves = %d for %d writes, want coalescing (< %d)", waves, n, n/2)
	}
	if ops := reg.Counters().Get("zeus.propose.ops"); ops < n {
		t.Errorf("proposed ops = %d, want >= %d", ops, n)
	}
	if batches := reg.Counters().Get("zeus.commit.batches"); batches <= 0 || batches >= n/2 {
		t.Errorf("commit batches = %d, want batched commits", batches)
	}
}

// TestGroupCommitOffIsPerWrite pins the baseline mode the distribution
// benchmark compares against: with group commit off, every write is its
// own proposal wave.
func TestGroupCommitOffIsPerWrite(t *testing.T) {
	net, e := testDeployment(t, 32)
	reg := obs.New()
	e.SetObs(reg)
	e.SetGroupCommit(false)
	c := addClient(net, e, "tailer")

	const n = 10
	committed := 0
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		for i := 0; i < n; i++ {
			c.Write(&ctx, fmt.Sprintf("/solo/cfg-%d", i), []byte("x"), func(WriteResult) { committed++ })
		}
	})
	net.RunFor(30 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	if waves := reg.Counters().Get("zeus.propose.waves"); waves != n {
		t.Errorf("proposal waves = %d, want %d (one per write)", waves, n)
	}
}

// TestObserverCoalescesRapidWrites drives the observer's batch-apply path
// directly: one commit batch carrying N rapid writes to the same path must
// produce exactly ONE watch notification, carrying the final version.
func TestObserverCoalescesRapidWrites(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 33)
	reg := obs.New()
	o := NewObserver("obs-1", []simnet.NodeID{"zeus-0"})
	o.Obs = reg
	net.AddNode("obs-1", simnet.Placement{Region: "us", Cluster: "c1"}, o)
	// A member stand-in, so batches arrive from a node the observer knows.
	net.AddNode("zeus-0", simnet.Placement{Region: "us", Cluster: "zk"}, simnet.HandlerFunc(
		func(*simnet.Context, simnet.NodeID, simnet.Message) {}))

	var events []MsgWatchEvent
	watcher := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(MsgWatchEvent); ok {
			events = append(events, m)
		}
	})
	net.AddNode("proxy-1", simnet.Placement{Region: "us", Cluster: "c1"}, watcher)
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "proxy-1")
		ctx.Send("obs-1", MsgFetch{ReqID: 1, Path: "/hot", Watch: true})
	})
	net.RunFor(2 * time.Second)

	const n = 8
	var updates []Update
	prev := []byte(nil)
	for i := 1; i <= n; i++ {
		data := []byte(fmt.Sprintf("v%d", i))
		updates = append(updates, Update{
			Path: "/hot", Version: int64(i), Zxid: int64(i),
			Payload: MakePayload(prev, vcs.HashBytes(prev), data, vcs.HashBytes(data), prev != nil),
		})
		prev = data
	}
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "zeus-0")
		ctx.Send("obs-1", msgObserverBatch{Epoch: 1, Updates: updates})
	})
	net.RunFor(2 * time.Second)

	if len(events) != 1 {
		t.Fatalf("got %d watch events for one batch of %d writes, want exactly 1: %+v",
			len(events), n, events)
	}
	if events[0].Version != n {
		t.Errorf("coalesced event version = %d, want %d", events[0].Version, n)
	}
	rec := o.Tree().Get("/hot")
	if rec == nil || string(rec.Data) != fmt.Sprintf("v%d", n) {
		t.Fatalf("observer tree = %v", rec)
	}
	// The single event must materialize the final content for a watcher
	// holding the pre-batch state (nil here: the path was empty at fetch).
	if got, _, err := events[0].Payload.Resolve(nil, 0); err != nil || string(got) != fmt.Sprintf("v%d", n) {
		t.Errorf("event payload resolve = %q, %v", got, err)
	}
	if co := reg.Counters().Get("zeus.observer.coalesced"); co != n-1 {
		t.Errorf("coalesced counter = %d, want %d", co, n-1)
	}
}

// TestWatchOrderingAcrossFailover floods one path with writes while the
// leader crashes mid-stream. Watchers may see coalesced subsets, but the
// versions they see must never go backwards, and the final notification
// must carry the final version.
func TestWatchOrderingAcrossFailover(t *testing.T) {
	net, e := testDeployment(t, 34)
	obsv := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)
	c := addClient(net, e, "tailer")

	var versions []int64
	watcher := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(MsgWatchEvent); ok {
			versions = append(versions, m.Version)
		}
	})
	net.AddNode("proxy-1", simnet.Placement{Region: "us-west", Cluster: "c1"}, watcher)
	// Keep the watch session alive: observers prune watchers that go
	// silent past watchSessionTTL, so ping like a real proxy would.
	var keepalive func()
	keepalive = func() {
		ctx := simnet.MakeContext(net, "proxy-1")
		ctx.Send("obs-c1", MsgPing{ReqID: 0})
		net.After(2*time.Second, keepalive)
	}
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "proxy-1")
		ctx.Send("obs-c1", MsgFetch{ReqID: 1, Path: "/hot", Watch: true})
		keepalive()
	})
	net.RunFor(2 * time.Second)

	const n = 30
	committed := 0
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		for i := 0; i < n; i++ {
			c.Write(&ctx, "/hot", []byte(fmt.Sprintf("w%d", i)), func(WriteResult) { committed++ })
		}
	})
	// Crash the leader while the burst is in flight, then let a new one
	// take over and the client retries drain.
	net.RunFor(30 * time.Millisecond)
	crashed := e.Leader()
	net.Fail(crashed)
	net.RunFor(60 * time.Second)
	net.Recover(crashed)
	net.RunFor(30 * time.Second)

	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	if len(versions) == 0 {
		t.Fatal("watcher saw no events")
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("watch versions out of order: %v", versions)
		}
	}
	finalRec := obsv.Tree().Get("/hot")
	if finalRec == nil {
		t.Fatal("observer missing /hot")
	}
	if last := versions[len(versions)-1]; last != finalRec.Version {
		t.Errorf("last notified version = %d, observer tree at %d", last, finalRec.Version)
	}
	if len(versions) >= int(finalRec.Version) {
		t.Logf("note: no coalescing observed (%d events for %d versions)", len(versions), finalRec.Version)
	}
}

// TestLeaderCrashMidBatch covers the chaos acceptance criterion: a leader
// crash while batched proposals are in flight must lose or commit each
// write atomically per the ZAB contract — after recovery every replica
// agrees, and the client's retries land every write exactly per its
// at-least-once contract.
func TestLeaderCrashMidBatch(t *testing.T) {
	for _, crashAfter := range []time.Duration{
		5 * time.Millisecond,   // before any wave is durably logged
		50 * time.Millisecond,  // waves logged, quorum not yet assembled
		150 * time.Millisecond, // mid-commit across regions
	} {
		crashAfter := crashAfter
		t.Run(crashAfter.String(), func(t *testing.T) {
			net, e := testDeployment(t, 35)
			c := addClient(net, e, "tailer")

			const n = 20
			committed := 0
			net.After(0, func() {
				ctx := clientCtx(net, "tailer")
				for i := 0; i < n; i++ {
					c.Write(&ctx, fmt.Sprintf("/batch/cfg-%d", i), []byte(fmt.Sprintf("b%d", i)),
						func(WriteResult) { committed++ })
				}
			})
			net.RunFor(crashAfter)
			crashed := e.Leader()
			if crashed == "" {
				t.Fatal("no leader to crash")
			}
			net.Fail(crashed)
			net.RunFor(60 * time.Second)
			net.Recover(crashed)
			net.RunFor(60 * time.Second)

			if committed != n {
				t.Fatalf("committed %d of %d after failover", committed, n)
			}
			leader := e.LeaderServer()
			if leader == nil {
				t.Fatal("no leader after recovery")
			}
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("/batch/cfg-%d", i)
				want := fmt.Sprintf("b%d", i)
				rec := leader.Tree().Get(path)
				if rec == nil || string(rec.Data) != want {
					t.Errorf("leader missing %s", path)
				}
				// Atomic per ZAB: every replica has the identical record.
				for id, s := range e.Servers {
					got := s.Tree().Get(path)
					if got == nil || string(got.Data) != want || got.Zxid != rec.Zxid {
						t.Errorf("%s diverged on %s: %+v", id, path, got)
					}
				}
			}
		})
	}
}

// TestObserverVerifiesFullSnapshots: a full-snapshot payload is checked
// against its NewHash like a delta's result. A forged one is never applied
// and sends the observer down the resync path (re-registration). Catch-up
// sync ops, which carry no hash, are hashed once on arrival, and every
// record carries the hash of its bytes.
func TestObserverVerifiesFullSnapshots(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 34)
	reg := obs.New()
	o := NewObserver("obs-1", []simnet.NodeID{"zeus-0"})
	o.Obs = reg
	net.AddNode("obs-1", simnet.Placement{Region: "us", Cluster: "c1"}, o)
	registers := 0
	net.AddNode("zeus-0", simnet.Placement{Region: "us", Cluster: "zk"}, simnet.HandlerFunc(
		func(_ *simnet.Context, _ simnet.NodeID, msg simnet.Message) {
			if _, ok := msg.(msgObserverRegister); ok {
				registers++
			}
		}))
	send := func(msg simnet.Message) {
		net.After(0, func() {
			ctx := simnet.MakeContext(net, "zeus-0")
			ctx.Send("obs-1", msg)
		})
		net.RunFor(time.Second)
	}

	send(msgObserverSync{Epoch: 1, Ops: []WriteOp{{Zxid: 1, Path: "/a", Data: []byte("v1"), Version: 1}}})
	if rec := o.Tree().Get("/a"); rec == nil || string(rec.Data) != "v1" || rec.Hash != vcs.HashBytes([]byte("v1")) {
		t.Fatalf("after sync, record = %+v", rec)
	}

	forged := Update{Path: "/a", Version: 2, Zxid: 2,
		Payload: Payload{Full: []byte("forged"), NewHash: vcs.HashBytes([]byte("claimed"))}}
	send(msgObserverBatch{Epoch: 1, Updates: []Update{forged}})
	if rec := o.Tree().Get("/a"); rec == nil || string(rec.Data) != "v1" {
		t.Fatalf("forged snapshot applied: record = %+v", rec)
	}
	if miss := reg.Counters().Get("zeus.observer.delta_miss"); miss != 1 {
		t.Errorf("zeus.observer.delta_miss = %d, want 1", miss)
	}
	if registers != 1 {
		t.Errorf("re-registrations = %d, want 1", registers)
	}

	good := Update{Path: "/a", Version: 2, Zxid: 2,
		Payload: MakePayload(nil, 0, []byte("v2"), vcs.HashBytes([]byte("v2")), false)}
	send(msgObserverBatch{Epoch: 1, Updates: []Update{good}})
	if rec := o.Tree().Get("/a"); rec == nil || string(rec.Data) != "v2" || rec.Hash != vcs.HashBytes([]byte("v2")) {
		t.Fatalf("after valid snapshot, record = %+v", rec)
	}
}
