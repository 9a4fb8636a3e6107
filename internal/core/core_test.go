package core

import (
	"testing"

	"dblsh/internal/dataset"
)

func testDataset(n, d int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Profile{
		Name: "t", N: n, Dim: d, Queries: 20, Clusters: 8, Std: 1, Spread: 10, Seed: seed,
	})
}

func TestBuildShapes(t *testing.T) {
	ds := testDataset(2000, 32, 1)
	idx := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 20, Seed: 1})
	if idx.Size() != 2000 || idx.Dim() != 32 {
		t.Fatalf("size=%d dim=%d", idx.Size(), idx.Dim())
	}
	p := idx.Params()
	if p.K != 8 || p.L != 4 {
		t.Fatalf("params %+v", p)
	}
	if p.W0 != 4*1.5*1.5 {
		t.Fatalf("default W0 = %v", p.W0)
	}
	if idx.InitialRadius() <= 0 {
		t.Fatalf("r0 = %v", idx.InitialRadius())
	}
	if idx.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes must be positive")
	}
}

func TestDerivedParams(t *testing.T) {
	ds := testDataset(5000, 16, 2)
	idx := Build(ds.Data, Config{Seed: 2})
	p := idx.Params()
	if p.K < 1 || p.L < 1 {
		t.Fatalf("derived params %+v", p)
	}
}

// TestIndexSizeCountsQuantizer pins that the pre-filter's n×d int8 mirror
// is part of the reported index footprint.
func TestIndexSizeCountsQuantizer(t *testing.T) {
	ds := testDataset(2000, 32, 3)
	cfg := Config{C: 1.5, K: 8, L: 4, T: 20, Seed: 3}
	cfg.Quantize = "off"
	off := Build(ds.Data, cfg).IndexSizeBytes()
	cfg.Quantize = "on"
	on := Build(ds.Data, cfg).IndexSizeBytes()
	if want := int64(ds.Data.Rows() * ds.Data.Dim()); on-off < want {
		t.Fatalf("IndexSizeBytes grew by %d bytes with the quantizer on, want ≥ n·d = %d", on-off, want)
	}
}

func BenchmarkBuild50k(b *testing.B) {
	ds := testDataset(50_000, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 1})
	}
}
