package bitcoin

import (
	"encoding/hex"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// genesisHeader returns Bitcoin block 0 (3 January 2009).
func genesisHeader() Header {
	var h Header
	h.Version = 1
	merkle, _ := hex.DecodeString("3ba3edfd7a7b12b27ac72c3e67768f617fc81bc3888a51323a9fb8aa4b1e5e4a")
	copy(h.MerkleRoot[:], merkle)
	h.Time = 1231006505
	h.Bits = 0x1d00ffff
	h.Nonce = 2083236893
	return h
}

func TestGenesisBlockHash(t *testing.T) {
	h := genesisHeader()
	got := h.Hash()
	// Display order (reversed): 000000000019d668...
	want, _ := hex.DecodeString("6fe28c0ab6f1b372c1a6a246ae63f74f931e8365e15a089c68d6190000000000")
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("genesis hash = %x, want %x", got, want)
		}
	}
	ok, err := CheckProofOfWork(&h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("the genesis block must satisfy its own proof of work")
	}
}

func TestGenesisFailsWithWrongNonce(t *testing.T) {
	h := genesisHeader()
	h.Nonce++
	ok, err := CheckProofOfWork(&h)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("wrong nonce should fail proof of work")
	}
}

func TestMidstatePathMatchesFullHash(t *testing.T) {
	h := genesisHeader()
	mid := h.Midstate()
	f := func(nonce uint32) bool {
		viaMid := h.HashWithMidstate(mid, nonce)
		full := h
		full.Nonce = nonce
		return viaMid == full.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompactToTargetDiff1(t *testing.T) {
	target, err := CompactToTarget(0x1d00ffff)
	if err != nil {
		t.Fatal(err)
	}
	// 0x00000000FFFF0000...0000 (26 zero bytes after the FFFF).
	want := new(big.Int).Lsh(big.NewInt(0xffff), 8*26)
	if target.Cmp(want) != 0 {
		t.Errorf("diff-1 target = %x, want %x", target, want)
	}
	d, err := Difficulty(0x1d00ffff)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("difficulty of 0x1d00ffff = %v, want 1", d)
	}
}

func TestCompactRejectsNegative(t *testing.T) {
	if _, err := CompactToTarget(0x1d800000); err == nil {
		t.Error("sign-bit target should be rejected")
	}
}

func TestTargetCompactRoundTrip(t *testing.T) {
	for _, bits := range []uint32{0x1d00ffff, 0x1b0404cb, 0x1a05db8b, 0x207fffff} {
		target, err := CompactToTarget(bits)
		if err != nil {
			t.Fatal(err)
		}
		if got := TargetToCompact(target); got != bits {
			t.Errorf("round trip of %08x = %08x", bits, got)
		}
	}
	if got := TargetToCompact(big.NewInt(0)); got != 0 {
		t.Errorf("zero target compact = %08x, want 0", got)
	}
}

func TestHigherDifficultyLowerTarget(t *testing.T) {
	d1, _ := Difficulty(0x1d00ffff)
	d2, _ := Difficulty(0x1b0404cb) // a 2010-era difficulty (~16307)
	if d2 <= d1 {
		t.Errorf("smaller target should mean higher difficulty: %v vs %v", d1, d2)
	}
	if d2 < 16000 || d2 > 16700 {
		t.Errorf("difficulty of 0x1b0404cb = %v, want ~16307", d2)
	}
}

func TestMineFindsEasyBlock(t *testing.T) {
	// Trivial difficulty: a target so large that nearly any nonce wins.
	h := genesisHeader()
	h.Bits = 0x207fffff // regtest-style easy target
	nonce, found, err := Mine(&h, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("easy target should be found quickly")
	}
	h.Nonce = nonce
	ok, err := CheckProofOfWork(&h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("mined nonce does not verify")
	}
}

func TestMineFindsGenesisNonce(t *testing.T) {
	// Scanning a window that contains the historical nonce must find it.
	h := genesisHeader()
	start := h.Nonce - 50
	nonce, found, err := Mine(&h, start, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !found || nonce != genesisHeader().Nonce {
		t.Errorf("Mine found (%v, %v), want the historical nonce", nonce, found)
	}
}

func TestMineGivesUp(t *testing.T) {
	h := genesisHeader()
	// Impossible window: genuine difficulty with only a few attempts
	// starting away from the solution.
	_, found, err := Mine(&h, 12345, 100)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("should not find a real-difficulty block in 100 tries")
	}
}

func TestMarshalLayout(t *testing.T) {
	h := genesisHeader()
	b := h.Marshal()
	if len(b) != 80 {
		t.Fatalf("header length = %d, want 80", len(b))
	}
	// Version 1, little endian.
	if b[0] != 1 || b[1] != 0 || b[2] != 0 || b[3] != 0 {
		t.Errorf("version bytes = % x", b[:4])
	}
	// Nonce at 76..80.
	if got := uint32(b[76]) | uint32(b[77])<<8 | uint32(b[78])<<16 | uint32(b[79])<<24; got != h.Nonce {
		t.Errorf("nonce bytes decode to %d, want %d", got, h.Nonce)
	}
}

func TestRCASpecMatchesEstimator(t *testing.T) {
	// The published RCA spec and the structural netlist must agree:
	// the same cross-check the paper performed with Synopsys tools.
	spec := RCA()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// (Estimator agreement is asserted in internal/vlsi tests; here we
	// check the published constants.)
	if spec.Area != 0.66 || spec.NominalPowerDensity != 2.0 {
		t.Error("published RCA constants drifted")
	}
	if spec.NominalPerf != 0.83 || spec.NominalFreq != 830e6 {
		t.Error("one hash per cycle at 830 MHz expected")
	}
}

func TestRolledCoreTradeoffs(t *testing.T) {
	rolled := RolledRCA()
	if err := rolled.Validate(); err != nil {
		t.Fatal(err)
	}
	pipelined := RCA()
	// The rolled core is two orders of magnitude smaller and slower.
	if rolled.Area >= pipelined.Area/50 {
		t.Errorf("rolled core area %.4f mm² should be ~1/128 of %.2f", rolled.Area, pipelined.Area)
	}
	if rolled.NominalPerf >= pipelined.NominalPerf/50 {
		t.Errorf("rolled core perf %.5f should be ~1/128 of %.2f", rolled.NominalPerf, pipelined.NominalPerf)
	}
	// Both styles land at crypto-class power density (within 2x).
	ratio := rolled.NominalPowerDensity / pipelined.NominalPowerDensity
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("rolled/pipelined power density ratio = %.2f, want same class", ratio)
	}
	// Per-area throughput: the pipelined style wins, which is why it is
	// "the most prevalent style" (paper §7).
	rolledEff := rolled.NominalPerf / rolled.Area
	pipeEff := pipelined.NominalPerf / pipelined.Area
	if rolledEff >= pipeEff {
		t.Errorf("pipelined GH/s/mm² (%.3f) should beat rolled (%.3f)", pipeEff, rolledEff)
	}
}

// TargetToCompact squeezes a target back into compact form.
func TargetToCompact(t *big.Int) uint32 {
	if t.Sign() <= 0 {
		return 0
	}
	bytes := (t.BitLen() + 7) / 8
	var mant uint32
	if bytes <= 3 {
		mant = uint32(t.Int64() << uint(8*(3-bytes)))
	} else {
		m := new(big.Int).Rsh(t, uint(8*(bytes-3)))
		mant = uint32(m.Int64())
	}
	// Avoid the sign bit by shifting the mantissa down a byte.
	if mant&0x00800000 != 0 {
		mant >>= 8
		bytes++
	}
	return uint32(bytes)<<24 | mant
}
