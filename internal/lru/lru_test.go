package lru

import (
	"fmt"
	"testing"
)

// TestEvictOldestDropsOldestQuarter: an overflowing map loses its
// least-recently-used quarter and keeps every newer entry.
func TestEvictOldestDropsOldestQuarter(t *testing.T) {
	m := make(map[string]int64)
	for i := int64(1); i <= 9; i++ {
		m[fmt.Sprint(i)] = i
	}
	tick := func(v int64) int64 { return v }
	if n := EvictOldest(m, 9, tick); n != 0 {
		t.Fatalf("at the bound: dropped %d, want 0", n)
	}
	m["10"] = 10
	if n := EvictOldest(m, 9, tick); n != 3 {
		t.Fatalf("over the bound: dropped %d, want 3", n)
	}
	for k, v := range m {
		if v <= 3 {
			t.Errorf("entry %s (tick %d) survived; the oldest quarter must go", k, v)
		}
	}
	if len(m) != 7 {
		t.Errorf("len = %d, want 7", len(m))
	}
	if n := EvictOldest(m, 0, tick); n != 0 {
		t.Errorf("max 0 is unbounded: dropped %d", n)
	}
}

func TestQuickselect(t *testing.T) {
	xs := []int64{5, 1, 4, 1, 5, 9, 2, 6}
	for k, want := range []int64{1, 1, 2, 4, 5, 5, 6, 9} {
		cp := append([]int64(nil), xs...)
		if got := quickselect(cp, k); got != want {
			t.Errorf("quickselect(k=%d) = %d, want %d", k, got, want)
		}
	}
}
