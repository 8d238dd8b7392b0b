package litecoin

import (
	"math"
	"testing"
)

func easyHeader() Header {
	return Header{Version: 2, Time: 1317972665, Bits: 0x2000ffff}
}

func TestMineEasyTarget(t *testing.T) {
	h := easyHeader()
	nonce, found, err := Mine(&h, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("easy scrypt target should be found within 4096 nonces")
	}
	h.Nonce = nonce
	ok, err := CheckProofOfWork(&h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("mined nonce does not verify")
	}
	// The miner must return the FIRST valid nonce: every nonce before
	// it fails verification.
	for n := uint32(0); n < nonce; n++ {
		check := easyHeader()
		check.Nonce = n
		ok, err := CheckProofOfWork(&check)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("miner skipped valid nonce %d (returned %d)", n, nonce)
		}
	}
}

func TestMineDeterministic(t *testing.T) {
	h1 := easyHeader()
	h2 := easyHeader()
	n1, f1, err1 := Mine(&h1, 0, 2048)
	n2, f2, err2 := Mine(&h2, 0, 2048)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if f1 != f2 || n1 != n2 {
		t.Errorf("mining not deterministic: (%v,%v) vs (%v,%v)", n1, f1, n2, f2)
	}
}

func TestMineGivesUpOnHardTarget(t *testing.T) {
	h := easyHeader()
	h.Bits = 0x1d00ffff // real difficulty 1: ~2^32 hashes expected
	_, found, err := Mine(&h, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("8 scrypt attempts should not crack difficulty 1")
	}
}

func TestMineRejectsBadBits(t *testing.T) {
	h := easyHeader()
	h.Bits = 0x1d800000 // sign bit set
	if _, _, err := Mine(&h, 0, 1); err == nil {
		t.Error("negative target should fail")
	}
	if _, err := CheckProofOfWork(&h); err == nil {
		t.Error("negative target should fail verification too")
	}
}

func TestHashesPerShare(t *testing.T) {
	// Difficulty 1 needs ~2^32 hashes.
	got, err := HashesPerShare(0x1d00ffff)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Pow(2, 32))/math.Pow(2, 32) > 0.01 {
		t.Errorf("hashes per share at diff 1 = %g, want ~2^32", got)
	}
	easy, err := HashesPerShare(0x2000ffff)
	if err != nil {
		t.Fatal(err)
	}
	if easy >= got/1e6 {
		t.Errorf("easy target (%g hashes) should be far below diff 1", easy)
	}
	if _, err := HashesPerShare(0x1d800000); err == nil {
		t.Error("bad bits should fail")
	}
}

func TestDifficultyAliases(t *testing.T) {
	d, err := Difficulty(0x1d00ffff)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("difficulty of 0x1d00ffff = %v, want 1", d)
	}
	if TargetBlockSeconds != 150 {
		t.Error("Litecoin blocks come every 2.5 minutes")
	}
}

func TestScryptPoWDiffersFromSHA(t *testing.T) {
	// The same header must produce different PoW hashes under the two
	// systems — Litecoin ASICs cannot mine Bitcoin and vice versa.
	h := easyHeader()
	scryptHash, err := PoWHashHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	shaHash := h.Hash()
	if scryptHash == shaHash {
		t.Error("scrypt and double-SHA256 PoW should differ")
	}
}
