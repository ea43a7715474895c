package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses the SNAP-style whitespace-separated edge-list format:
// one "u v" pair per line, lines starting with '#' or '%' are comments,
// blank lines are skipped. Vertex identifiers are non-negative integers; n
// is inferred as max(id)+1. Self-loops and duplicates are tolerated and
// normalized away by the builder.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var edges [][2]int32
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want two fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", line)
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return FromEdges(-1, edges)
}

// WriteEdgeList writes g in the format accepted by ReadEdgeList, one
// undirected edge per line with u < v.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var writeErr error
	g.EachEdge(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}
