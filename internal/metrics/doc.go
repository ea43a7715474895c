// Package metrics provides the agreement measures that extend the
// effectiveness analysis (Section VI-B) beyond the paper's top-k overlap
// (ego.Overlap): Jaccard similarity, and Spearman rank correlation between
// centrality score vectors, for full-ranking agreement, which the
// EXPERIMENTS.md effectiveness section uses.
package metrics
