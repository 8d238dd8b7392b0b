package bitcoin

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// Header is Bitcoin's 80-byte block header, the input to the mining
// operation. "The hash operation uses an input 512 bit block that is
// reused across billions of hashes" — the first 64 bytes — "and then
// repeatedly ... mutates the block and performs a SHA256 hash on it."
type Header struct {
	Version    uint32
	PrevBlock  [32]byte
	MerkleRoot [32]byte
	Time       uint32
	Bits       uint32 // compact difficulty target
	Nonce      uint32
}

// Marshal serializes the header in Bitcoin's little-endian wire format.
func (h *Header) Marshal() [80]byte {
	var out [80]byte
	binary.LittleEndian.PutUint32(out[0:], h.Version)
	copy(out[4:36], h.PrevBlock[:])
	copy(out[36:68], h.MerkleRoot[:])
	binary.LittleEndian.PutUint32(out[68:], h.Time)
	binary.LittleEndian.PutUint32(out[72:], h.Bits)
	binary.LittleEndian.PutUint32(out[76:], h.Nonce)
	return out
}

// Hash is the block's double-SHA256 proof-of-work hash.
func (h *Header) Hash() [32]byte {
	b := h.Marshal()
	return DoubleSum256(b[:])
}

// Midstate returns the SHA-256 chaining state after the header's first
// 64-byte block — the value a hardware miner computes once and reuses
// across all 2³² nonce attempts, since the nonce lives in the second
// block.
func (h *Header) Midstate() State {
	b := h.Marshal()
	var block [64]byte
	copy(block[:], b[:64])
	return Compress(initState, &block)
}

// HashWithMidstate finishes the double hash from a cached midstate for
// the given nonce: second header block (16 bytes + padding), then the
// outer hash. This is exactly the datapath the RCA replicates.
func (h *Header) HashWithMidstate(mid State, nonce uint32) [32]byte {
	b := h.Marshal()
	var tail [64]byte
	copy(tail[:], b[64:80])
	binary.LittleEndian.PutUint32(tail[12:], nonce)
	tail[16] = 0x80
	binary.BigEndian.PutUint64(tail[56:], 80*8)
	first := Compress(mid, &tail).Bytes()

	var second [64]byte
	copy(second[:], first[:])
	second[32] = 0x80
	binary.BigEndian.PutUint64(second[56:], 32*8)
	return Compress(initState, &second).Bytes()
}

// diff1Target is the maximum target (difficulty 1): 0x1d00ffff compact.
var diff1Target = mustTarget(0x1d00ffff)

func mustTarget(bits uint32) *big.Int {
	t, err := CompactToTarget(bits)
	if err != nil {
		panic(err)
	}
	return t
}

// CompactToTarget expands Bitcoin's compact "bits" encoding into the
// 256-bit target threshold.
func CompactToTarget(bits uint32) (*big.Int, error) {
	exp := int(bits >> 24)
	mant := int64(bits & 0x007fffff)
	if bits&0x00800000 != 0 {
		return nil, fmt.Errorf("bitcoin: negative compact target %08x", bits)
	}
	t := big.NewInt(mant)
	if exp <= 3 {
		t.Rsh(t, uint(8*(3-exp)))
	} else {
		t.Lsh(t, uint(8*(exp-3)))
	}
	return t, nil
}

// HashToInt interprets a proof-of-work hash as the number Bitcoin
// compares against the target (the hash bytes reversed, i.e. treated as
// little-endian).
func HashToInt(hash [32]byte) *big.Int {
	var rev [32]byte
	for i := range hash {
		rev[i] = hash[31-i]
	}
	return new(big.Int).SetBytes(rev[:])
}

// CheckProofOfWork reports whether the header's hash meets its target.
func CheckProofOfWork(h *Header) (bool, error) {
	target, err := CompactToTarget(h.Bits)
	if err != nil {
		return false, err
	}
	return HashToInt(h.Hash()).Cmp(target) <= 0, nil
}

// Difficulty converts a compact target to Bitcoin difficulty (the ratio
// of the difficulty-1 target to the current target).
func Difficulty(bits uint32) (float64, error) {
	t, err := CompactToTarget(bits)
	if err != nil {
		return 0, err
	}
	if t.Sign() <= 0 {
		return 0, fmt.Errorf("bitcoin: zero target")
	}
	d := new(big.Rat).SetFrac(diff1Target, t)
	f, _ := d.Float64()
	return f, nil
}

// Mine scans count nonces from start, returning the first nonce whose
// hash meets the header's target. It uses the midstate path, like the
// hardware it models.
func Mine(h *Header, start uint32, count uint64) (nonce uint32, found bool, err error) {
	target, err := CompactToTarget(h.Bits)
	if err != nil {
		return 0, false, err
	}
	mid := h.Midstate()
	n := start
	for i := uint64(0); i < count; i++ {
		hash := h.HashWithMidstate(mid, n)
		if HashToInt(hash).Cmp(target) <= 0 {
			return n, true, nil
		}
		n++
	}
	return 0, false, nil
}
