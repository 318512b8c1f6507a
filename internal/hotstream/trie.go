package hotstream

// trie indexes stream sequences for prefix tests, greedy longest-match
// tokenization (trace reduction), and — with failure links — Aho-Corasick
// scanning for exact per-stream occurrence counting.
//
// Every edge lives in one open-addressed table keyed by (parent node,
// symbol) rather than in per-node child maps. Node 0 is the root and is
// never a child, so a child index of 0 means "no edge".
type trie struct {
	nodes []trieNode
	edges []trieEdge // power-of-two length, at most half full
	shift uint       // 64 - log2(len(edges))
}

type trieNode struct {
	sym      uint64 // label of the edge into this node
	streamID int32  // terminating stream, -1 if none
	fail     int32  // Aho-Corasick failure link
	out      int32  // nearest terminating node on the failure chain
	depth    int32
	// firstChild and nextSibling thread each node's children into a
	// list for the breadth-first walk that builds failure links.
	firstChild  int32
	nextSibling int32
}

type trieEdge struct {
	sym    uint64
	parent int32
	child  int32 // 0 = empty slot
}

func newTrie() *trie { return newTrieSized(0) }

// newTrieSized returns an empty trie whose tables hold n nodes without
// growing.
func newTrieSized(n int) *trie {
	bits := uint(6)
	for 1<<bits < 2*(n+1) {
		bits++
	}
	t := &trie{
		nodes: make([]trieNode, 1, n+1),
		edges: make([]trieEdge, 1<<bits),
		shift: 64 - bits,
	}
	t.nodes[0] = trieNode{streamID: -1, fail: 0, out: -1}
	return t
}

// reset empties the trie, keeping its memory.
func (t *trie) reset() {
	t.nodes = t.nodes[:1]
	t.nodes[0] = trieNode{streamID: -1, fail: 0, out: -1}
	clear(t.edges)
}

// trieOf indexes streams[i].Seq as stream i.
func trieOf(streams []*Stream) *trie {
	n := 0
	for _, s := range streams {
		n += len(s.Seq)
	}
	t := newTrieSized(n)
	for i, s := range streams {
		t.insert(s.Seq, i)
	}
	return t
}

// slot is the home position of edge (n, v) in the edge table.
func (t *trie) slot(n int32, v uint64) int {
	return int((v ^ uint64(n)*0xbf58476d1ce4e5b9) * 0x9e3779b97f4a7c15 >> t.shift)
}

// child returns node n's child on symbol v, or 0 if it has none.
func (t *trie) child(n int32, v uint64) int32 {
	mask := len(t.edges) - 1
	for i := t.slot(n, v); ; i = (i + 1) & mask {
		e := &t.edges[i]
		if e.child == 0 {
			return 0
		}
		if e.parent == n && e.sym == v {
			return e.child
		}
	}
}

// addChild appends a new node as n's child on symbol v (which n must not
// have yet) and returns it.
func (t *trie) addChild(n int32, v uint64) int32 {
	c := int32(len(t.nodes))
	t.nodes = append(t.nodes, trieNode{
		sym: v, streamID: -1, fail: 0, out: -1, depth: t.nodes[n].depth + 1,
		nextSibling: t.nodes[n].firstChild,
	})
	t.nodes[n].firstChild = c
	if 2*len(t.nodes) > len(t.edges) {
		t.growEdges()
	}
	t.putEdge(trieEdge{sym: v, parent: n, child: c})
	return c
}

func (t *trie) putEdge(e trieEdge) {
	mask := len(t.edges) - 1
	i := t.slot(e.parent, e.sym)
	for t.edges[i].child != 0 {
		i = (i + 1) & mask
	}
	t.edges[i] = e
}

// growEdges doubles the edge table and reinserts every edge.
func (t *trie) growEdges() {
	old := t.edges
	t.edges = make([]trieEdge, 2*len(old))
	t.shift--
	for _, e := range old {
		if e.child != 0 {
			t.putEdge(e)
		}
	}
}

func (t *trie) insert(seq []uint64, id int) {
	n := int32(0)
	for _, v := range seq {
		next := t.child(n, v)
		if next == 0 {
			next = t.addChild(n, v)
		}
		n = next
	}
	t.nodes[n].streamID = int32(id)
}

// hasHotPrefix reports whether some inserted sequence is a proper prefix
// of seq.
func (t *trie) hasHotPrefix(seq []uint64) bool {
	n := int32(0)
	for i, v := range seq {
		if t.nodes[n].streamID >= 0 && i > 0 {
			return true
		}
		if n = t.child(n, v); n == 0 {
			return false
		}
	}
	return false
}

// longestMatch returns the stream ID and length of the longest inserted
// sequence matching a prefix of window, or (-1, 0).
func (t *trie) longestMatch(window []uint64) (int32, int) {
	n := int32(0)
	best, bestLen := int32(-1), 0
	for i, v := range window {
		if n = t.child(n, v); n == 0 {
			break
		}
		if t.nodes[n].streamID >= 0 {
			best, bestLen = t.nodes[n].streamID, i+1
		}
	}
	return best, bestLen
}

// buildFailLinks turns the trie into an Aho-Corasick automaton (BFS over
// depth). A node's failure link depends only on the string it spells, so
// the order in which one depth's nodes are visited does not matter.
func (t *trie) buildFailLinks() {
	queue := make([]int32, 0, len(t.nodes))
	for c := t.nodes[0].firstChild; c != 0; c = t.nodes[c].nextSibling {
		t.nodes[c].fail = 0
		queue = append(queue, c)
	}
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		node := &t.nodes[n]
		f := node.fail
		if t.nodes[f].streamID >= 0 {
			node.out = f
		} else {
			node.out = t.nodes[f].out
		}
		for c := node.firstChild; c != 0; c = t.nodes[c].nextSibling {
			// Follow failure links to find the deepest proper suffix
			// with an outgoing edge on c's symbol.
			sym := t.nodes[c].sym
			f := t.nodes[n].fail
			for {
				if next := t.child(f, sym); next != 0 && next != c {
					t.nodes[c].fail = next
					break
				}
				if f == 0 {
					t.nodes[c].fail = 0
					break
				}
				f = t.nodes[f].fail
			}
			queue = append(queue, c)
		}
	}
}

// step advances the automaton from state n on symbol v.
func (t *trie) step(n int32, v uint64) int32 {
	for {
		if next := t.child(n, v); next != 0 {
			return next
		}
		if n == 0 {
			return 0
		}
		n = t.nodes[n].fail
	}
}
