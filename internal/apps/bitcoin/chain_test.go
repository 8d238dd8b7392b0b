package bitcoin

import (
	"errors"
	"testing"
)

// easyBits is a demo-grade target: a share every ~256 hashes.
const easyBits = 0x2000ffff

// mineBlock builds and mines a valid block on the given parent.
func mineBlock(t *testing.T, prev [32]byte, tag byte, timestamp uint32) Block {
	t.Helper()
	var digest [32]byte
	digest[0] = tag
	b := NewBlock(prev, digest, timestamp, easyBits)
	nonce, found, err := Mine(&b.Header, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("could not mine a demo block")
	}
	b.Header.Nonce = nonce
	return b
}

// newTestChain mines a genesis and opens a ledger on it.
func newTestChain(t *testing.T) (*Chain, Block) {
	t.Helper()
	genesis := mineBlock(t, [32]byte{}, 0x67, 1231006505)
	c, err := NewChain(genesis)
	if err != nil {
		t.Fatal(err)
	}
	return c, genesis
}

func TestChainLinearGrowth(t *testing.T) {
	c, genesis := newTestChain(t)
	prev := genesis.Hash()
	for i := 1; i <= 5; i++ {
		b := mineBlock(t, prev, byte(i), uint32(1231006505+i*600))
		becameTip, err := c.Add(b)
		if err != nil {
			t.Fatal(err)
		}
		if !becameTip {
			t.Fatalf("block %d should extend the tip", i)
		}
		prev = b.Hash()
	}
	if c.Height() != 5 {
		t.Errorf("height = %d, want 5", c.Height())
	}
	main := c.MainChain()
	if len(main) != 6 {
		t.Fatalf("main chain has %d blocks, want 6", len(main))
	}
	// Linkage is intact genesis → tip.
	for i := 1; i < len(main); i++ {
		if main[i].Header.PrevBlock != main[i-1].Hash() {
			t.Fatalf("chain linkage broken at %d", i)
		}
	}
	if c.TotalWork().Sign() <= 0 {
		t.Error("total work should be positive")
	}
}

func TestChainRejectsInvalidBlocks(t *testing.T) {
	c, genesis := newTestChain(t)

	// Bad PoW: valid structure, wrong nonce (overwhelmingly invalid).
	bad := mineBlock(t, genesis.Hash(), 9, 1231007105)
	bad.Header.Nonce++
	if _, err := c.Add(bad); !errors.Is(err, ErrBadPoW) {
		t.Errorf("expected ErrBadPoW, got %v", err)
	}

	// Unknown parent.
	var orphanParent [32]byte
	orphanParent[5] = 0xde
	orphan := mineBlock(t, orphanParent, 10, 1231007105)
	if _, err := c.Add(orphan); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("expected ErrUnknownParent, got %v", err)
	}

	// Broken transaction commitment.
	forged := mineBlock(t, genesis.Hash(), 11, 1231007105)
	forged.TxDigest[0] ^= 0xff // header no longer commits to the txs
	if _, err := c.Add(forged); !errors.Is(err, ErrBadCommitment) {
		t.Errorf("expected ErrBadCommitment, got %v", err)
	}

	// Duplicate.
	good := mineBlock(t, genesis.Hash(), 12, 1231007105)
	if _, err := c.Add(good); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(good); !errors.Is(err, ErrDuplicate) {
		t.Errorf("expected ErrDuplicate, got %v", err)
	}
}

func TestForkResolution(t *testing.T) {
	// "In the infrequent case where two machines on the network have
	// found a winning hash and broadcasted new blocks in parallel, and
	// the chain has 'forked', the long version has priority."
	c, genesis := newTestChain(t)

	a1 := mineBlock(t, genesis.Hash(), 0xa1, 1231007105)
	b1 := mineBlock(t, genesis.Hash(), 0xb1, 1231007106)
	if _, err := c.Add(a1); err != nil {
		t.Fatal(err)
	}
	// The competing block arrives but does not displace the first tip
	// (equal work: first seen wins).
	becameTip, err := c.Add(b1)
	if err != nil {
		t.Fatal(err)
	}
	if becameTip {
		t.Error("equal-work fork should not displace the current tip")
	}
	if c.tip != a1.Hash() {
		t.Error("tip should remain the first branch")
	}

	// The b-branch extends first: reorg.
	b2 := mineBlock(t, b1.Hash(), 0xb2, 1231007706)
	becameTip, err = c.Add(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !becameTip {
		t.Fatal("longer fork should take over")
	}
	if c.tip != b2.Hash() || c.Height() != 2 {
		t.Error("reorg did not move the tip")
	}
	// The stale branch is known but off the main chain.
	if !c.Contains(b1.Hash()) || !c.Contains(genesis.Hash()) {
		t.Error("main chain membership wrong for the winning branch")
	}
	if c.Contains(a1.Hash()) {
		t.Error("stale block should not be on the main chain")
	}
	if len(c.nodes) != 4 {
		t.Errorf("known blocks = %d, want 4 (incl. the stale one)", len(c.nodes))
	}
	// The main chain is genesis → b1 → b2.
	main := c.MainChain()
	if len(main) != 3 || main[1].Hash() != b1.Hash() {
		t.Error("main chain should follow the b branch")
	}
}

func TestWorkWeightedSelection(t *testing.T) {
	// A single high-difficulty block outweighs several easy ones —
	// consensus follows work, not block count.
	c, genesis := newTestChain(t)
	easy1 := mineBlock(t, genesis.Hash(), 1, 1231007105)
	easy2Parent := easy1.Hash()
	if _, err := c.Add(easy1); err != nil {
		t.Fatal(err)
	}
	easy2 := mineBlock(t, easy2Parent, 2, 1231007705)
	if _, err := c.Add(easy2); err != nil {
		t.Fatal(err)
	}

	// A harder competing block directly on genesis (16x the work of an
	// easy block: two fewer mantissa F's → smaller target).
	var digest [32]byte
	digest[0] = 0xcc
	hard := NewBlock(genesis.Hash(), digest, 1231007105, 0x20000fff)
	nonce, found, err := Mine(&hard.Header, 0, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Skip("did not find a hard demo block in the budget")
	}
	hard.Header.Nonce = nonce
	becameTip, err := c.Add(hard)
	if err != nil {
		t.Fatal(err)
	}
	if !becameTip {
		t.Error("the heavier one-block fork should win over two easy blocks")
	}
	if c.Height() != 1 {
		t.Errorf("height = %d, want 1 (the hard branch)", c.Height())
	}
}

func TestNewChainValidatesGenesis(t *testing.T) {
	var digest [32]byte
	g := NewBlock([32]byte{}, digest, 1, easyBits)
	g.Header.Nonce = 0xdeadbeef // almost surely invalid
	if ok, _ := CheckProofOfWork(&g.Header); !ok {
		if _, err := NewChain(g); !errors.Is(err, ErrBadPoW) {
			t.Errorf("expected ErrBadPoW for unmined genesis, got %v", err)
		}
	}
}

func TestGetAndMembership(t *testing.T) {
	c, genesis := newTestChain(t)
	if _, ok := c.nodes[genesis.Hash()]; !ok {
		t.Error("genesis should be retrievable")
	}
	var missing [32]byte
	missing[0] = 0x99
	if _, ok := c.nodes[missing]; ok {
		t.Error("unknown hash should miss")
	}
	if c.Contains(missing) {
		t.Error("unknown hash is not on the main chain")
	}
}

// MainChain walks the heaviest chain from genesis to tip.
func (c *Chain) MainChain() []Block {
	var rev []Block
	h := c.tip
	for {
		n := c.nodes[h]
		rev = append(rev, n.block)
		if h == c.genesis {
			break
		}
		h = n.parent
	}
	out := make([]Block, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Contains reports whether the block is on the heaviest chain (as
// opposed to a stale fork).
func (c *Chain) Contains(hash [32]byte) bool {
	n, ok := c.nodes[hash]
	if !ok {
		return false
	}
	h := c.tip
	for {
		cur := c.nodes[h]
		if cur.height < n.height {
			return false
		}
		if h == hash {
			return true
		}
		if h == c.genesis {
			return false
		}
		h = cur.parent
	}
}
