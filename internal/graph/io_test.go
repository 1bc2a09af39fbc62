package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := ErdosRenyi(50, 0.2, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Dense().Equal(g.Dense()) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := `# a comment

3 2
0 1 1.5
# another
1 2 2.5
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
	if g.Adj(1)[1].W != 2.5 {
		t.Fatalf("weight = %v", g.Adj(1)[1].W)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "x y\n",
		"short header":  "5\n",
		"bad edge":      "2 1\n0 one 2\n",
		"short edge":    "2 1\n0 1\n",
		"count too low": "3 2\n0 1 1\n",
		"out of range":  "2 1\n0 5 1\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadEdgeListZeroEdges(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("4 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
}

// TestReadEdgeListForgedCounts: header counts are checked against the
// body, never trusted for allocation — a count past any slice capacity
// is a clean error, not a makeslice panic, and so is a vertex count past
// the int32 adjacency indices.
func TestReadEdgeListForgedCounts(t *testing.T) {
	for name, in := range map[string]string{
		"edge-count-past-cap":     "3 4611686018427387904\n0 1 1\n",
		"edge-count-1e9":          "3 1000000000\n0 1 1\n",
		"vertex-count-past-int32": "4611686018427387904 0\n",
		"nan-weight":              "2 1\n0 1 NaN\n",
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// FuzzReadEdgeList: arbitrary bytes parse to a graph or an error, never
// a panic; an accepted graph has the header's vertex count and at most
// the edges the body listed. The vertex limit is lowered so a forged
// count cannot make the fuzzer allocate a huge (but legal) graph.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("3 4611686018427387904\n0 1 1\n"))
	f.Add([]byte("3 2\n0 1 1.5\n1 2 2.5\n"))
	f.Add([]byte("# comment\n\n4 1\n3 0 7\n"))
	f.Add([]byte("2 1\n0 0 1\n"))
	f.Add([]byte("2 1\n0 1 -1\n"))
	f.Add([]byte("2 1\n0 1 NaN\n"))
	f.Add([]byte("9223372036854775807 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readEdgeList(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		if g.N < 0 || g.N > 1<<16 {
			t.Fatalf("accepted a graph of %d vertices", g.N)
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; g.NumEdges() > lines {
			t.Fatalf("%d edges from %d lines", g.NumEdges(), lines)
		}
	})
}
