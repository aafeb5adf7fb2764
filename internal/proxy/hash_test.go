package proxy

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// Content hashes are computed once per version per node and then carried
// (Entry.Hash). These tests pin the checks that make carrying them safe:
// full snapshots are verified like deltas, disk-cache bases are rehashed
// from their bytes, and a base whose bytes no longer match its recorded
// hash can never turn into a served version that differs from Zeus.

// lines builds a multi-line config so edits take the delta path; edit
// replaces line n's value.
func lines(count, edit int, value string) []byte {
	var b bytes.Buffer
	for i := 0; i < count; i++ {
		v := "value"
		if i == edit {
			v = value
		}
		fmt.Fprintf(&b, "line %03d: %s\n", i, v)
	}
	return b.Bytes()
}

// TestWatchFullSnapshotHashMissFallsBackToFetch injects a full-snapshot
// watch event whose bytes do not hash to its NewHash. The proxy must not
// apply or deliver them, must count a fallback, and must end on head bytes
// via a full fetch.
func TestWatchFullSnapshotHashMissFallsBackToFetch(t *testing.T) {
	r := newRig(t, 11)
	reg := obs.New()
	r.proxy.Obs = reg
	r.write(t, "/configs/app", `v1`)
	var delivered []string
	r.proxy.Subscribe("/configs/app", func(e Entry) { delivered = append(delivered, string(e.Data)) })
	r.net.RunFor(2 * time.Second)

	e, _ := r.proxy.Get("/configs/app")
	forged := zeus.MsgWatchEvent{Update: zeus.Update{
		Path: "/configs/app", Version: e.Version + 1, Zxid: e.Zxid + 100,
		Payload: zeus.Payload{
			Full:    []byte("forged bytes"),
			NewHash: vcs.HashBytes([]byte("what the sender claims")),
		},
	}}
	from := r.proxy.observer()
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, from)
		ctx.Send("proxy-1", forged)
	})
	r.net.RunFor(5 * time.Second)

	if fb := reg.Counters().Get("proxy.delta.fallback"); fb != 1 {
		t.Errorf("proxy.delta.fallback = %d, want 1", fb)
	}
	for _, d := range delivered {
		if d != "v1" {
			t.Errorf("subscriber was handed %q, want only v1", d)
		}
	}
	got, ok := r.proxy.Get("/configs/app")
	if !ok || string(got.Data) != "v1" || got.Hash != vcs.HashBytes([]byte("v1")) {
		t.Fatalf("after forged snapshot, cache = %+v, %v", got, ok)
	}
}

// TestDiskBaseRehashedOnRestart stores the disk-cache entry with a missing
// or stale Hash field (as an older cache, or a bare DiskCache.Store,
// leaves it) and restarts the proxy. The proxy must advertise the hash of
// the bytes, so the observer answers "not modified" or with a delta rather
// than a full snapshot.
func TestDiskBaseRehashedOnRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hash     uint64 // the stored (wrong) field
		advance  bool   // commit one version while the proxy is down
		counter  string // the observer reply the real hash earns
		wantData []byte
	}{
		{"missing-hash-not-modified", 0, false, "zeus.fetch.not_modified", lines(40, 20, "value")},
		{"stale-hash-delta", vcs.HashBytes([]byte("stale")), true, "zeus.fetch.delta", lines(40, 20, "EDITED")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 12)
			reg := obs.New()
			r.ens.SetObs(reg)
			r.proxy.Obs = reg
			const path = "/configs/app"
			r.write(t, path, string(lines(40, 20, "value")))
			r.proxy.Subscribe(path, func(Entry) {})
			r.net.RunFor(2 * time.Second)

			r.proxy.Crash()
			e, ok := r.proxy.Disk().Load(path)
			if !ok {
				t.Fatal("disk cache empty after fetch")
			}
			e.Hash = tc.hash
			r.proxy.Disk().Store(e)
			if tc.advance {
				r.write(t, path, string(lines(40, 20, "EDITED")))
			}
			before := reg.Counters().Get(tc.counter)
			fullBefore := reg.Counters().Get("zeus.fetch.full")
			r.proxy.Restart()
			r.net.RunFor(5 * time.Second)

			if n := reg.Counters().Get(tc.counter); n != before+1 {
				t.Errorf("%s = %d, want %d", tc.counter, n, before+1)
			}
			if n := reg.Counters().Get("zeus.fetch.full"); n != fullBefore {
				t.Errorf("zeus.fetch.full = %d, want %d (no full snapshot)", n, fullBefore)
			}
			got, ok := r.proxy.Get(path)
			if !ok || !bytes.Equal(got.Data, tc.wantData) || got.Hash != vcs.HashBytes(tc.wantData) {
				t.Fatalf("after restart, cache = %q (hash %#x), %v", got.Data, got.Hash, ok)
			}
		})
	}
}

// TestMutatedBaseNeverServed: a subscriber scribbles on the Entry.Data it
// was handed, so the cached bytes no longer match the recorded Entry.Hash
// the next delta is checked against. When the damage lies in bytes the
// delta copies from the base, the result misses NewHash and the proxy
// falls back to a full fetch; when the delta replaces the damaged bytes,
// the result is correct as is. Either way every version the proxy
// materializes afterwards is byte-identical to the committed one and the
// proxy converges to head.
//
// The damaged version (v1) reaches the proxy as a delta, so its bytes are
// the proxy's own: a full snapshot would share the observer's record in
// this in-process simulation, and the scribble would reach the observer too.
func TestMutatedBaseNeverServed(t *testing.T) {
	v0 := lines(40, 5, "start")
	v1 := lines(40, 20, "value")
	v2 := lines(40, 20, "EDITED")
	firstDiff := 0
	for v1[firstDiff] == v2[firstDiff] {
		firstDiff++
	}
	for _, tc := range []struct {
		name         string
		at           int // the byte of v1 the subscriber scribbles on
		wantFallback int64
	}{
		{"copied-region", 0, 1},
		{"replaced-region", firstDiff, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 13)
			reg := obs.New()
			r.proxy.Obs = reg
			const path = "/configs/app"
			r.write(t, path, string(v0))
			var later [][]byte
			r.proxy.Subscribe(path, func(e Entry) {
				switch {
				case e.Version == 2:
					e.Data[tc.at] ^= 0xff // the misbehaving subscriber
				case e.Version > 2:
					later = append(later, append([]byte(nil), e.Data...))
				}
			})
			r.net.RunFor(2 * time.Second)
			r.write(t, path, string(v1))
			r.write(t, path, string(v2))
			r.net.RunFor(5 * time.Second)

			if fb := reg.Counters().Get("proxy.delta.fallback"); fb != tc.wantFallback {
				t.Errorf("proxy.delta.fallback = %d, want %d", fb, tc.wantFallback)
			}
			if len(later) == 0 {
				t.Fatal("v2 never delivered")
			}
			for _, d := range later {
				if !bytes.Equal(d, v2) {
					t.Errorf("delivered %q, want committed v2", d)
				}
			}
			got, ok := r.proxy.Get(path)
			if !ok || got.Version != 3 || !bytes.Equal(got.Data, v2) || got.Hash != vcs.HashBytes(v2) {
				t.Fatalf("after delta, cache = v%d %q (hash %#x), %v", got.Version, got.Data, got.Hash, ok)
			}
		})
	}
}

// BenchmarkProxyWatchDelta is the proxy-apply layer cost: one proxy
// receiving a delta watch event for a 64 KiB config with a two-line edit,
// alternating between the two versions. Each op resolves the delta
// (apply + verify), publishes the new snapshot, and writes the disk cache.
func BenchmarkProxyWatchDelta(b *testing.B) {
	const path = "/configs/big"
	var va, vb bytes.Buffer
	for i := 0; va.Len() < 64<<10; i++ {
		line := fmt.Sprintf("key_%05d = %q\n", i, "some configured value")
		va.WriteString(line)
		if i == 1000 || i == 1001 {
			line = fmt.Sprintf("key_%05d = %q\n", i, "an edited value")
		}
		vb.WriteString(line)
	}
	a, c := va.Bytes(), vb.Bytes()
	ha, hc := vcs.HashBytes(a), vcs.HashBytes(c)
	// toC turns a into c; toA turns it back.
	toC := zeus.MakePayload(a, ha, c, hc, true)
	toA := zeus.MakePayload(c, hc, a, ha, true)
	if !toC.IsDelta || !toA.IsDelta {
		b.Fatal("two-line edit did not delta-encode")
	}

	net := simnet.New(simnet.DefaultLatency(), 1)
	pl := simnet.Placement{Region: "us", Cluster: "web"}
	net.AddNode("obs-1", pl, simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {}))
	px := New(net, "proxy-1", pl, []simnet.NodeID{"obs-1"}, nil)
	ctx := simnet.MakeContext(net, "proxy-1")
	px.HandleMessage(&ctx, "obs-1", zeus.MsgWatchEvent{Update: zeus.Update{
		Path: path, Version: 1, Zxid: 1, Payload: zeus.MakePayload(nil, 0, a, ha, false)}})

	b.SetBytes(int64(len(a)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := toC
		if i%2 == 1 {
			p = toA
		}
		v := int64(i + 2)
		px.HandleMessage(&ctx, "obs-1", zeus.MsgWatchEvent{Update: zeus.Update{
			Path: path, Version: v, Zxid: v, Payload: p}})
	}
	b.StopTimer()
	if e, ok := px.Get(path); !ok || e.Version != int64(b.N+1) {
		b.Fatalf("proxy at version %d, want %d", e.Version, b.N+1)
	}
}
