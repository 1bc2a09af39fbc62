package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in the plain-text format used throughout
// this repository (and produced by cmd/graphgen):
//
//	n m
//	u v w        (one line per undirected edge, u < v)
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N, g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the edge-list format written by WriteEdgeList.
// Blank lines and lines starting with '#' are ignored. The header's edge
// count is validated against the body, and it is never trusted for
// allocation: the edge slice grows with the lines actually read, so a
// forged count costs nothing. The vertex count is bounded by the graph's
// int32 adjacency indices.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(r, math.MaxInt32)
}

// edgePrealloc caps the edge capacity reserved from the header's count
// before any edge line has been read.
const edgePrealloc = 1 << 16

// readEdgeList is ReadEdgeList with an explicit vertex-count limit.
func readEdgeList(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n, m int
	var edges []Edge
	header := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if !header {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: header needs \"n m\", got %q", line, text)
			}
			var err1, err2 error
			n, err1 = strconv.Atoi(fields[0])
			m, err2 = strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad header %q", line, text)
			}
			if n > maxN {
				return nil, fmt.Errorf("graph: line %d: %d vertices, at most %d supported", line, n, maxN)
			}
			header = true
			edges = make([]Edge, 0, min(m, edgePrealloc))
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: edge needs \"u v w\", got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("graph: header promises %d edges, body has %d", m, len(edges))
	}
	return FromEdges(n, edges)
}
