package bitcoin

import (
	"errors"
	"fmt"
	"math/big"
)

// The paper's §2 describes the mechanism the mining ASICs secure: "a
// global, public ledger of transactions, called the blockchain ...
// Periodically ... a block of new transactions is aggregated and posted
// to the ledger", with Byzantine fault tolerant consensus — peers verify
// each block's proof of work and linkage, and "in the infrequent case
// where two machines ... have found a winning hash and broadcasted new
// blocks in parallel, and the chain has 'forked', the long version has
// priority." This file implements that ledger: block validation, fork
// tracking, and heaviest-chain selection.

// Block is a header plus the payload digest it commits to (the "block of
// new transactions", reduced to its Merkle root here).
type Block struct {
	Header Header
	// TxDigest is the transaction set digest the header's MerkleRoot
	// must commit to.
	TxDigest [32]byte
}

// NewBlock assembles a block over a transaction digest, on top of a
// parent block hash.
func NewBlock(prev [32]byte, txDigest [32]byte, timestamp, bits uint32) Block {
	b := Block{TxDigest: txDigest}
	b.Header.Version = 2
	b.Header.PrevBlock = prev
	b.Header.MerkleRoot = txDigest
	b.Header.Time = timestamp
	b.Header.Bits = bits
	return b
}

// Hash is the block's identifier.
func (b *Block) Hash() [32]byte { return b.Header.Hash() }

// Chain validation errors.
var (
	ErrBadPoW        = errors.New("bitcoin: proof of work does not meet target")
	ErrUnknownParent = errors.New("bitcoin: parent block unknown")
	ErrDuplicate     = errors.New("bitcoin: block already known")
	ErrBadCommitment = errors.New("bitcoin: header does not commit to the transactions")
)

// chainNode is a block with its accumulated work.
type chainNode struct {
	block  Block
	parent [32]byte
	height int
	// work is the cumulative expected hashes to build the chain ending
	// here; consensus picks the most-work tip ("the long version has
	// priority" — measured in work, as Bitcoin does).
	work *big.Int
}

// Chain is the replicated ledger: a block tree with heaviest-tip
// selection.
type Chain struct {
	nodes   map[[32]byte]*chainNode
	tip     [32]byte
	genesis [32]byte
}

// NewChain starts a ledger from a genesis block. The genesis block's
// proof of work is validated like any other.
func NewChain(genesis Block) (*Chain, error) {
	if err := validateSelfContained(&genesis); err != nil {
		return nil, err
	}
	h := genesis.Hash()
	c := &Chain{nodes: make(map[[32]byte]*chainNode), tip: h, genesis: h}
	c.nodes[h] = &chainNode{
		block:  genesis,
		height: 0,
		work:   blockWork(genesis.Header.Bits),
	}
	return c, nil
}

// validateSelfContained checks everything about a block that does not
// require its ancestry: the PoW and the transaction commitment.
func validateSelfContained(b *Block) error {
	if b.Header.MerkleRoot != b.TxDigest {
		return ErrBadCommitment
	}
	ok, err := CheckProofOfWork(&b.Header)
	if err != nil {
		return err
	}
	if !ok {
		return ErrBadPoW
	}
	return nil
}

// blockWork is the expected hash count a block at the given target
// represents: 2²⁵⁶ / (target + 1).
func blockWork(bits uint32) *big.Int {
	target, err := CompactToTarget(bits)
	if err != nil || target.Sign() <= 0 {
		return big.NewInt(0)
	}
	space := new(big.Int).Lsh(big.NewInt(1), 256)
	return space.Div(space, new(big.Int).Add(target, big.NewInt(1)))
}

// Add validates a block and attaches it to the tree. "The other machines
// on the network will examine the new block, determine if the
// transaction is legitimate ... or is the proof-of-work invalid, and if
// it is, they will use this new updated chain." Returns whether the
// block became the new tip (possibly reorganizing).
func (c *Chain) Add(b Block) (becameTip bool, err error) {
	h := b.Hash()
	if _, ok := c.nodes[h]; ok {
		return false, ErrDuplicate
	}
	if err := validateSelfContained(&b); err != nil {
		return false, err
	}
	parent, ok := c.nodes[b.Header.PrevBlock]
	if !ok {
		return false, fmt.Errorf("%w: %x", ErrUnknownParent, b.Header.PrevBlock[:8])
	}
	node := &chainNode{
		block:  b,
		parent: b.Header.PrevBlock,
		height: parent.height + 1,
		work:   new(big.Int).Add(parent.work, blockWork(b.Header.Bits)),
	}
	c.nodes[h] = node
	if node.work.Cmp(c.nodes[c.tip].work) > 0 {
		c.tip = h
		return true, nil
	}
	return false, nil
}

// Height of the heaviest chain.
func (c *Chain) Height() int { return c.nodes[c.tip].height }

// TotalWork of the heaviest chain in expected hashes.
func (c *Chain) TotalWork() *big.Int { return new(big.Int).Set(c.nodes[c.tip].work) }
