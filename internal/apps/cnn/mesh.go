package cnn

import "fmt"

// MeshDim is the DaDianNao system dimension: "HyperTransport links on
// each side allowing the system to gluelessly scale to a 64-chip system
// in an 8-by-8 mesh". Our RCA is one DDN node; the mesh is 8×8 nodes.
const MeshDim = 8

// NodesPerSystem is the node count of one full DDN system.
const NodesPerSystem = MeshDim * MeshDim

// PartitionResult carries a distributed inference outcome.
type PartitionResult struct {
	Output *Tensor
	// TrafficBytes is the total activation traffic exchanged between
	// nodes (the all-gather after each output-partitioned layer).
	TrafficBytes int64
}

// PartitionedForward runs the network with each layer's output channels
// partitioned across `nodes` mesh nodes (DaDianNao's model parallelism:
// weights stay resident in each node's eDRAM; activations are
// broadcast). The assembled result must be bit-identical to the
// monolithic Forward — asserted by tests.
func PartitionedForward(n *Network, in *Tensor, nodes int) (PartitionResult, error) {
	if nodes <= 0 {
		return PartitionResult{}, fmt.Errorf("cnn: need at least one node")
	}
	t := in
	var traffic int64
	for li, l := range n.Layers {
		outC := l.OutChannels(t.C)
		if outC <= 0 {
			return PartitionResult{}, fmt.Errorf("cnn: layer %d has no outputs", li)
		}
		// Each node computes a contiguous channel slice.
		parts := make([]*Tensor, 0, nodes)
		for p := 0; p < nodes; p++ {
			lo := p * outC / nodes
			hi := (p + 1) * outC / nodes
			if lo >= hi {
				continue // more nodes than channels: idle node
			}
			part, err := l.ForwardChannels(t, lo, hi)
			if err != nil {
				return PartitionResult{}, fmt.Errorf("cnn: layer %d node %d: %w", li, p, err)
			}
			parts = append(parts, part)
		}
		merged, err := concatChannels(parts)
		if err != nil {
			return PartitionResult{}, fmt.Errorf("cnn: layer %d: %w", li, err)
		}
		// All-gather: each node ships its slice to the other nodes.
		// Total bytes on the wire: tensor size × (active nodes - 1).
		if len(parts) > 1 {
			traffic += int64(merged.Bytes()) * int64(len(parts)-1)
		}
		t = merged
	}
	return PartitionResult{Output: t, TrafficBytes: traffic}, nil
}

func concatChannels(parts []*Tensor) (*Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cnn: nothing to concatenate")
	}
	totalC := 0
	for _, p := range parts {
		if p.H != parts[0].H || p.W != parts[0].W {
			return nil, fmt.Errorf("cnn: partition shape mismatch")
		}
		totalC += p.C
	}
	out, err := NewTensor(totalC, parts[0].H, parts[0].W)
	if err != nil {
		return nil, err
	}
	c := 0
	for _, p := range parts {
		copy(out.Data[c*p.H*p.W:], p.Data)
		c += p.C
	}
	return out, nil
}

// ChipShape is a rectangular grouping of mesh nodes onto one die: "a 4x2
// ASIC has 4 nodes in the lane direction and 2 nodes in the across-lane
// direction". Links interior to the chip become on-chip NoC hops;
// perimeter links remain HyperTransport.
type ChipShape struct {
	A int // nodes in the lane direction
	B int // nodes in the across-lane direction
}

// String implements fmt.Stringer as the paper's "(A, B)" labels.
func (s ChipShape) String() string { return fmt.Sprintf("(%d, %d)", s.A, s.B) }

// Validate checks the shape fits the mesh.
func (s ChipShape) Validate() error {
	if s.A < 1 || s.B < 1 || s.A > MeshDim || s.B > MeshDim {
		return fmt.Errorf("cnn: chip shape %v outside the %dx%d mesh", s, MeshDim, MeshDim)
	}
	return nil
}

// Nodes per chip.
func (s ChipShape) Nodes() int { return s.A * s.B }

// ChipsPerSystem is how many chips tile one 8×8 system, allowing partial
// chips at the edges ("we allow partial chip usage, e.g. arrays that
// have excess RCA's that are turned off").
func (s ChipShape) ChipsPerSystem() int {
	return ceilDiv(MeshDim, s.A) * ceilDiv(MeshDim, s.B)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// HTLinksPerChip counts the HyperTransport PHYs on the die: one per
// perimeter mesh link, 2(A+B). "The more RCAs that are integrated into a
// chip, the fewer total HyperTransport links are necessary, saving cost,
// area and power."
func (s ChipShape) HTLinksPerChip() int { return 2 * (s.A + s.B) }

// PaperShapes returns the twelve configurations of the paper's
// Figure 17.
func PaperShapes() []ChipShape {
	return []ChipShape{
		{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1},
		{4, 2}, {5, 1}, {5, 2}, {6, 1}, {7, 1}, {8, 1},
	}
}
