package forest

import (
	"encoding/json"
	"fmt"
)

// flatTree is the serialized form of a Tree: nodes flattened into parallel
// arrays, children referenced by index (−1 for none).
type flatTree struct {
	Feature []int     `json:"feature"`
	Thresh  []float64 `json:"thresh"`
	Left    []int     `json:"left"`
	Right   []int     `json:"right"`
	Value   []float64 `json:"value"`
	Leaf    []bool    `json:"leaf"`
}

func flatten(t *Tree) *flatTree {
	ft := &flatTree{}
	var walk func(n *node) int
	walk = func(n *node) int {
		id := len(ft.Leaf)
		ft.Feature = append(ft.Feature, n.feature)
		ft.Thresh = append(ft.Thresh, n.thresh)
		ft.Value = append(ft.Value, n.value)
		ft.Leaf = append(ft.Leaf, n.leaf)
		ft.Left = append(ft.Left, -1)
		ft.Right = append(ft.Right, -1)
		if !n.leaf {
			ft.Left[id] = walk(n.left)
			ft.Right[id] = walk(n.right)
		}
		return id
	}
	walk(t.root)
	return ft
}

// unflatten rebuilds a tree from its flat form, rejecting any shape that
// flatten cannot write: flatten numbers nodes in pre-order, so a split's
// children come after it and every node but the root is the child of
// exactly one split. That makes every walk from the root finite — a child
// index pointing back up would make Predict loop forever. A split must
// also read a non-negative feature; whether the feature fits the rows the
// caller predicts on is the caller's to check (MaxFeature).
func unflatten(ft *flatTree) (*Tree, error) {
	n := len(ft.Leaf)
	if n == 0 || len(ft.Feature) != n || len(ft.Thresh) != n || len(ft.Left) != n || len(ft.Right) != n || len(ft.Value) != n {
		return nil, fmt.Errorf("forest: inconsistent serialized tree")
	}
	nodes := make([]node, n)
	parents := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = node{feature: ft.Feature[i], thresh: ft.Thresh[i], value: ft.Value[i], leaf: ft.Leaf[i]}
		if ft.Leaf[i] {
			continue
		}
		if ft.Feature[i] < 0 {
			return nil, fmt.Errorf("forest: node %d splits on feature %d", i, ft.Feature[i])
		}
		l, r := ft.Left[i], ft.Right[i]
		if l <= i || l >= n || r <= i || r >= n {
			return nil, fmt.Errorf("forest: node %d has children %d and %d; want indices in (%d, %d)", i, l, r, i, n)
		}
		parents[l]++
		parents[r]++
		nodes[i].left = &nodes[l]
		nodes[i].right = &nodes[r]
	}
	for i := 1; i < n; i++ {
		if parents[i] != 1 {
			return nil, fmt.Errorf("forest: node %d is the child of %d splits, want 1", i, parents[i])
		}
	}
	return &Tree{root: &nodes[0]}, nil
}

// MarshalJSON serializes the tree.
func (t *Tree) MarshalJSON() ([]byte, error) { return json.Marshal(flatten(t)) }

// UnmarshalJSON deserializes the tree.
func (t *Tree) UnmarshalJSON(b []byte) error {
	var ft flatTree
	if err := json.Unmarshal(b, &ft); err != nil {
		return err
	}
	nt, err := unflatten(&ft)
	if err != nil {
		return err
	}
	t.root = nt.root
	return nil
}

// MarshalJSON serializes the forest as an array of trees.
func (f *Forest) MarshalJSON() ([]byte, error) { return json.Marshal(f.Trees) }

// UnmarshalJSON deserializes the forest.
func (f *Forest) UnmarshalJSON(b []byte) error {
	var trees []*Tree
	if err := json.Unmarshal(b, &trees); err != nil {
		return err
	}
	if len(trees) == 0 {
		return fmt.Errorf("forest: empty serialized forest")
	}
	for i, t := range trees {
		if t == nil {
			return fmt.Errorf("forest: serialized tree %d is null", i)
		}
	}
	f.Trees = trees
	return nil
}
