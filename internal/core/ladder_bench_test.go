package core

import (
	"testing"

	"dblsh/internal/dataset"
)

// BenchmarkLadderModes pits the incremental cursor ladder against the
// window re-scan oracle on the same index and queries — the head-to-head
// behind the traversal rework, on the same clustered corpus as the
// top-level Table 4 benchmark. Both modes verify identical candidates in
// identical order (see the ladder equivalence tests); only traversal cost
// differs. Both run under the test-only ladder loop (ladderQuery).
func BenchmarkLadderModes(b *testing.B) {
	ds := dataset.Generate(dataset.Profile{
		Name: "bench", N: 20_000, Dim: 128, Queries: 50,
		Clusters: 50, Std: 1, Spread: 11, SubClusters: 20, Seed: 13,
	})
	idx := Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 13})
	for _, mode := range []struct {
		name   string
		rescan bool
	}{{"cursor", false}, {"rescan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = ladderQuery(s, ds.Queries.Row(i%ds.Queries.Rows()), 50, QueryParams{}, mode.rescan)
			}
		})
	}
}
