package cnn

import (
	"math"
	"math/rand"
	"testing"
)

func randomInput(t *testing.T, c, h, w int, seed int64) *Tensor {
	t.Helper()
	in, err := NewTensor(c, h, w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range in.Data {
		in.Data[i] = rng.Float32()*2 - 1
	}
	return in
}

func TestTensorAccessors(t *testing.T) {
	x, err := NewTensor(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	x.Set(1, 2, 3, 7.5)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Errorf("At = %v, want 7.5", got)
	}
	if got := x.Bytes(); got != 2*3*4*2 {
		t.Errorf("Bytes = %d, want %d (16-bit values)", got, 2*3*4*2)
	}
	if _, err := NewTensor(0, 1, 1); err == nil {
		t.Error("zero-channel tensor should fail")
	}
}

func TestConvKnownResult(t *testing.T) {
	// 1-channel 3x3 identity-ish kernel on a small image.
	c := &Conv{InC: 1, OutC: 1, K: 3, Pad: 1,
		Weights: make([]float32, 9), Bias: []float32{0}}
	c.Weights[4] = 1 // center tap: identity convolution
	in := randomInput(t, 1, 5, 5, 1)
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 1 || out.H != 5 || out.W != 5 {
		t.Fatalf("output shape %dx%dx%d, want 1x5x5", out.C, out.H, out.W)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity kernel should copy input")
		}
	}
}

func TestConvShapeAndErrors(t *testing.T) {
	c, err := NewConv(3, 8, 3, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	in := randomInput(t, 3, 10, 10, 2)
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 8 || out.H != 8 || out.W != 8 {
		t.Errorf("valid conv output %dx%dx%d, want 8x8x8", out.C, out.H, out.W)
	}
	if _, err := c.Forward(randomInput(t, 4, 10, 10, 3)); err == nil {
		t.Error("channel mismatch should fail")
	}
	if _, err := c.ForwardChannels(in, 5, 3); err == nil {
		t.Error("inverted channel range should fail")
	}
	if _, err := c.ForwardChannels(in, 0, 9); err == nil {
		t.Error("out-of-range channels should fail")
	}
	if _, err := NewConv(0, 1, 3, 0, 1); err == nil {
		t.Error("zero input channels should fail")
	}
	tiny := randomInput(t, 3, 2, 2, 4)
	if _, err := c.Forward(tiny); err == nil {
		t.Error("collapsing output should fail")
	}
}

func TestReLU(t *testing.T) {
	in := randomInput(t, 2, 4, 4, 5)
	out, err := ReLU{}.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v < 0 {
			t.Fatalf("negative output %v at %d", v, i)
		}
		if in.Data[i] > 0 && v != in.Data[i] {
			t.Fatalf("positive input altered")
		}
	}
}

func TestMaxPool(t *testing.T) {
	in, _ := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out, err := MaxPool{K: 2}.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool output %dx%d, want 2x2", out.H, out.W)
	}
	// Max of each 2x2 quadrant of 0..15 row-major.
	want := []float32{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	if _, err := (MaxPool{K: 0}).Forward(in); err == nil {
		t.Error("zero pool size should fail")
	}
}

func TestReferenceNetworkForward(t *testing.T) {
	net, err := ReferenceNetwork()
	if err != nil {
		t.Fatal(err)
	}
	in := randomInput(t, 3, 32, 32, 6)
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 64 || out.H != 8 || out.W != 8 {
		t.Errorf("output %dx%dx%d, want 64x8x8", out.C, out.H, out.W)
	}
	macs, err := net.TotalMACs(in)
	if err != nil {
		t.Fatal(err)
	}
	if macs <= 0 {
		t.Error("MAC count should be positive")
	}
	// First conv alone: 16 out × 32×32 × 3 in × 9 taps.
	if macs < 16*32*32*3*9 {
		t.Errorf("MACs %d below the first layer's count", macs)
	}
}

func TestPartitionedForwardMatchesMonolithic(t *testing.T) {
	net, err := ReferenceNetwork()
	if err != nil {
		t.Fatal(err)
	}
	in := randomInput(t, 3, 16, 16, 7)
	want, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 8, 64, 100} {
		got, err := PartitionedForward(net, in, nodes)
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if got.Output.C != want.C || got.Output.H != want.H || got.Output.W != want.W {
			t.Fatalf("%d nodes: shape mismatch", nodes)
		}
		for i := range want.Data {
			if math.Abs(float64(got.Output.Data[i]-want.Data[i])) > 1e-6 {
				t.Fatalf("%d nodes: value mismatch at %d", nodes, i)
			}
		}
		if nodes == 1 && got.TrafficBytes != 0 {
			t.Error("single node should need no traffic")
		}
		if nodes > 1 && got.TrafficBytes == 0 {
			t.Errorf("%d nodes: expected inter-node traffic", nodes)
		}
	}
	if _, err := PartitionedForward(net, in, 0); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestTrafficGrowsWithNodes(t *testing.T) {
	net, _ := ReferenceNetwork()
	in := randomInput(t, 3, 16, 16, 8)
	r2, err := PartitionedForward(net, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := PartitionedForward(net, in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.TrafficBytes <= r2.TrafficBytes {
		t.Errorf("8-node traffic (%d) should exceed 2-node (%d)",
			r8.TrafficBytes, r2.TrafficBytes)
	}
}
