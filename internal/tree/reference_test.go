package tree

// referenceGrow is the test oracle of Grow: the row-pull reading of the
// learner, kept as a plain serial recursion over [][]int columns. Each node
// counts its rows one by one, scores every (attribute, cut) candidate in
// one attribute-major, cut-minor scan, and partitions its rows by appending
// them to the left or right child. Importance accumulates in pre-order
// during the recursion. It shares only the gini helpers and prune with the
// production grower, so any engine-level change that alters a tree shows up
// as a mismatch in TestColumnarMatchesValuesEngine.
func referenceGrow(cols [][]int, bins, labels []int, classes int, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{NumAttrs: len(cols), NumClasses: classes, Importance: make([]float64, len(cols))}
	rows := make([]int, len(labels))
	spans := make([]Span, len(cols))
	for i := range rows {
		rows[i] = i
	}
	for a := range spans {
		spans[a] = Span{Lo: 0, Hi: bins[a] - 1}
	}
	var grow func(rows []int, spans []Span, depth int) *Node
	grow = func(rows []int, spans []Span, depth int) *Node {
		node := &Node{Counts: make([]int, classes)}
		for _, r := range rows {
			node.Counts[labels[r]]++
		}
		nonzero := 0
		for c, n := range node.Counts {
			if n > node.Counts[node.Class] {
				node.Class = c
			}
			if n > 0 {
				nonzero++
			}
		}
		if depth >= cfg.MaxDepth || len(rows) < 2*cfg.MinLeaf || nonzero <= 1 {
			return node
		}
		parent := make([]float64, classes)
		for c, n := range node.Counts {
			parent[c] = float64(n)
		}
		parentGini := giniOf(parent, float64(len(rows)))
		bestAttr, bestCut, bestGain := -1, 0, 0.0
		for a, col := range cols {
			span := spans[a]
			counts := make([][]float64, bins[a]) // counts[bin][class]
			totals := make([]float64, classes)
			for b := range counts {
				counts[b] = make([]float64, classes)
			}
			for _, r := range rows {
				counts[col[r]][labels[r]]++
				totals[labels[r]]++
			}
			n := float64(len(rows))
			left := make([]float64, classes)
			var nLeft float64
			for cut := span.Lo; cut < span.Hi; cut++ {
				for c, v := range counts[cut] {
					left[c] += v
					nLeft += v
				}
				nRight := n - nLeft
				if nLeft < float64(cfg.MinLeaf) || nRight < float64(cfg.MinLeaf) {
					continue
				}
				weighted := (nLeft*giniOf(left, nLeft) + nRight*giniOfRight(totals, left, nRight)) / n
				if gain := parentGini - weighted; gain > bestGain || (gain == bestGain && bestAttr == -1) {
					bestAttr, bestCut, bestGain = a, cut, gain
				}
			}
		}
		if bestAttr < 0 || bestGain < cfg.MinGain {
			return node
		}
		var leftRows, rightRows []int
		for _, r := range rows {
			if cols[bestAttr][r] <= bestCut {
				leftRows = append(leftRows, r)
			} else {
				rightRows = append(rightRows, r)
			}
		}
		if len(leftRows) < cfg.MinLeaf || len(rightRows) < cfg.MinLeaf {
			return node
		}
		node.Attr, node.Cut = bestAttr, bestCut
		t.Importance[bestAttr] += bestGain * float64(len(rows)) / float64(len(labels))
		leftSpans := append([]Span(nil), spans...)
		rightSpans := append([]Span(nil), spans...)
		leftSpans[bestAttr].Hi = bestCut
		rightSpans[bestAttr].Lo = bestCut + 1
		node.Left = grow(leftRows, leftSpans, depth+1)
		node.Right = grow(rightRows, rightSpans, depth+1)
		return node
	}
	t.Root = grow(rows, spans, 0)
	if !cfg.DisablePruning {
		prune(t.Root)
	}
	return t
}
