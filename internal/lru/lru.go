// Package lru is the eviction policy shared by the repo's bounded
// content-addressed caches (the cdl engine's parse, scan, module and
// result caches, and the dataflow summary memo): each entry carries a
// last-use tick, and a cache that outgrows its bound drops roughly its
// least-recently-used quarter. Dropping a quarter at a time amortizes the
// O(n) scan, and — unlike clearing the whole cache — keeps the entries the
// most recent work touched, so an overflow never forces the next query to
// rebuild everything.
package lru

// EvictOldest removes roughly the least-recently-used quarter of m once it
// holds more than max entries, returning how many entries were dropped.
// max <= 0 means unbounded.
func EvictOldest[E any](m map[string]E, max int, lastUse func(E) int64) int {
	if max <= 0 || len(m) <= max {
		return 0
	}
	// Find the cutoff tick below which entries are evicted: collect ticks
	// and take the quartile via a partial selection.
	ticks := make([]int64, 0, len(m))
	for _, e := range m {
		ticks = append(ticks, lastUse(e))
	}
	cutoff := quickselect(ticks, len(ticks)/4)
	dropped := 0
	for k, e := range m {
		if lastUse(e) <= cutoff {
			delete(m, k)
			dropped++
		}
	}
	return dropped
}

// quickselect returns the k-th smallest element (0-based) of xs, mutating
// xs in place.
func quickselect(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}
