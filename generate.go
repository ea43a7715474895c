package egobw

import (
	"repro/internal/dataset"
	"repro/internal/gen"
)

// Seeded graph generators, re-exported for building workloads. All are
// deterministic functions of their parameters and seed.

// GenerateER samples a uniform Erdős–Rényi G(n, m) graph.
func GenerateER(n int32, m int64, seed uint64) *Graph {
	return gen.ErdosRenyi(n, m, seed)
}

// GenerateBA grows a Barabási–Albert preferential-attachment graph where
// each new vertex attaches to mPer existing ones.
func GenerateBA(n int32, mPer int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, mPer, seed)
}

// GenerateChungLu samples the Chung–Lu expected-degree model with power-law
// exponent gamma, target average degree avgDeg, and per-vertex weight cap
// maxDeg (0 = uncapped).
func GenerateChungLu(n int32, gamma, avgDeg float64, maxDeg int32, seed uint64) *Graph {
	return gen.ChungLu(n, gamma, avgDeg, maxDeg, seed)
}

// GenerateWS builds a Watts–Strogatz small-world graph (ring degree k,
// rewiring probability beta).
func GenerateWS(n int32, k int, beta float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// GenerateAffiliation builds a collaboration-style graph from overlapping
// community cliques (the DBLP-like model).
func GenerateAffiliation(nAuthors int32, nCommunities int, meanSize, p float64, seed uint64) *Graph {
	return gen.Affiliation(nAuthors, nCommunities, meanSize, p, seed)
}

// LoadDataset returns one of the named benchmark datasets ("youtube",
// "wikitalk", "dblp", "pokec", "livejournal", "db", "ir") — seeded synthetic
// analogs of the paper's graphs, sized by the EGOBW_SCALE environment
// variable.
func LoadDataset(name string) (*Graph, error) { return dataset.Load(name) }
