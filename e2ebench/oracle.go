package main

import (
	"fmt"

	"fovr/internal/fov"
	"fovr/internal/index"
	"fovr/internal/query"
)

// The correctness oracle. Expected answers are computed before timing
// with the repository's own ranker (query.Search / query.SearchNearest)
// over the brute-force index.Linear holding exactly the preloaded
// entries, with the server's camera and top-N.

// ranker answers one read request against an index: a /query or a
// /nearest with its parameters bound.
type ranker func(idx *index.Linear, n int) ([]query.Ranked, error)

func queryRanker(q query.Query, cam fov.Camera) ranker {
	return func(idx *index.Linear, n int) ([]query.Ranked, error) {
		return query.Search(idx, q, query.Options{Camera: cam, MaxResults: n})
	}
}

func nearestRanker(q query.Query, cam fov.Camera) ranker {
	return func(idx *index.Linear, n int) ([]query.Ranked, error) {
		return query.SearchNearest(idx, q.Center, q.StartMillis, q.EndMillis, n, query.Options{Camera: cam, MaxResults: n})
	}
}

// checkExact compares a read-only answer with the oracle's: the same
// ids in the same order with the same distances.
func checkExact(got, want []query.Ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.ID != want[i].Entry.ID || got[i].DistanceMeters != want[i].DistanceMeters {
			return fmt.Errorf("result %d: got id %d at %vm, oracle has id %d at %vm",
				i, got[i].Entry.ID, got[i].DistanceMeters, want[i].Entry.ID, want[i].DistanceMeters)
		}
	}
	return nil
}

// checkLive judges an answer given while uploads were landing, where
// the exact answer depends on which uploads the server had applied.
// The rule stays sound under any interleaving:
//
//   - every returned entry is preloaded or acknowledged (known) and
//     carries exactly the stored content;
//   - the answer is the top-n of (returned ∪ want ∪ must) under the
//     system's own ranking. That one comparison checks coverage, time
//     overlap, distances and order of every returned entry, and that
//     no preloaded entry the oracle ranks ahead of the last returned
//     result (or any at all, when fewer than n came back) is missing.
//
// want is the oracle's preload-only answer; must holds entries
// acknowledged before the request was sent (read-your-write probes).
func checkLive(got, want []query.Ranked, must []index.Entry, n int, rank ranker, known func(uint64) (index.Entry, bool)) error {
	if len(got) > n {
		return fmt.Errorf("got %d results, asked for at most %d", len(got), n)
	}
	pool := index.NewLinear()
	seen := make(map[uint64]bool, len(got)+len(want)+len(must))
	add := func(e index.Entry) error {
		if seen[e.ID] {
			return nil
		}
		seen[e.ID] = true
		return pool.Insert(e)
	}
	for i, r := range got {
		k, ok := known(r.Entry.ID)
		if !ok {
			return fmt.Errorf("result %d: id %d was never preloaded or acknowledged", i, r.Entry.ID)
		}
		if k != r.Entry {
			return fmt.Errorf("result %d: id %d content %+v differs from stored %+v", i, r.Entry.ID, r.Entry, k)
		}
		if seen[r.Entry.ID] {
			return fmt.Errorf("result %d: id %d returned twice", i, r.Entry.ID)
		}
		if err := add(r.Entry); err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
	}
	for _, r := range want {
		if err := add(r.Entry); err != nil {
			return err
		}
	}
	for _, e := range must {
		if err := add(e); err != nil {
			return err
		}
	}
	ref, err := rank(pool, n)
	if err != nil {
		return err
	}
	if err := checkExact(got, ref); err != nil {
		return fmt.Errorf("not the top-%d of returned+oracle+acknowledged: %w", n, err)
	}
	return nil
}
