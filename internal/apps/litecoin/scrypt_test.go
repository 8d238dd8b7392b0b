package litecoin

import (
	"bytes"
	cryptohmac "crypto/hmac"
	cryptosha "crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHMACSHA256RFC4231(t *testing.T) {
	// RFC 4231 test case 1.
	key := bytes.Repeat([]byte{0x0b}, 20)
	got := hmacSHA256(key, []byte("Hi There"))
	want := mustHex(t, "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
	if !bytes.Equal(got[:], want) {
		t.Errorf("HMAC = %x, want %x", got, want)
	}
}

func TestHMACMatchesStdlibProperty(t *testing.T) {
	f := func(key, data []byte) bool {
		ours := hmacSHA256(key, data)
		mac := cryptohmac.New(cryptosha.New, key)
		mac.Write(data)
		return bytes.Equal(ours[:], mac.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHMACLongKey(t *testing.T) {
	// Keys longer than the block size are hashed first.
	key := bytes.Repeat([]byte{0xaa}, 131)
	data := []byte("Test Using Larger Than Block-Size Key - Hash Key First")
	got := hmacSHA256(key, data)
	// RFC 4231 test case 6.
	want := mustHex(t, "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
	if !bytes.Equal(got[:], want) {
		t.Errorf("HMAC long key = %x, want %x", got, want)
	}
}

func TestPBKDF2RFC7914(t *testing.T) {
	// RFC 7914 §11: PBKDF2-HMAC-SHA-256 ("passwd", "salt", 1, 64).
	got := pbkdf2SHA256([]byte("passwd"), []byte("salt"), 1, 64)
	want := mustHex(t,
		"55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"+
			"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783")
	if !bytes.Equal(got, want) {
		t.Errorf("PBKDF2 = %x, want %x", got, want)
	}
}

func TestPBKDF2MultipleIterations(t *testing.T) {
	// RFC 7914 §11 second vector: 80,000 iterations.
	if testing.Short() {
		t.Skip("80k-iteration vector skipped in -short mode")
	}
	got := pbkdf2SHA256([]byte("Password"), []byte("NaCl"), 80000, 64)
	want := mustHex(t,
		"4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"+
			"a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d")
	if !bytes.Equal(got, want) {
		t.Errorf("PBKDF2 80k = %x, want %x", got, want)
	}
}

func TestScryptRFC7914Vectors(t *testing.T) {
	cases := []struct {
		password, salt string
		n, r, p        int
		want           string
	}{
		{"", "", 16, 1, 1,
			"77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442" +
				"fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906"},
		{"password", "NaCl", 1024, 8, 16,
			"fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b373162" +
				"2eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640"},
	}
	for _, c := range cases {
		got, err := Key([]byte(c.password), []byte(c.salt), c.n, c.r, c.p, 64)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("scrypt(%q,%q,%d,%d,%d) = %x, want %s",
				c.password, c.salt, c.n, c.r, c.p, got, c.want)
		}
	}
}

func TestScryptParamValidation(t *testing.T) {
	if _, err := Key(nil, nil, 3, 1, 1, 32); err == nil {
		t.Error("non-power-of-two N should fail")
	}
	if _, err := Key(nil, nil, 1, 1, 1, 32); err == nil {
		t.Error("N=1 should fail")
	}
	if _, err := Key(nil, nil, 16, 0, 1, 32); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := Key(nil, nil, 16, 1, -1, 32); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := Key(nil, nil, 16, 1, 1, 0); err == nil {
		t.Error("dkLen=0 should fail")
	}
}

func TestPoWHash(t *testing.T) {
	header := make([]byte, 80)
	for i := range header {
		header[i] = byte(i)
	}
	h1, err := PoWHash(header)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := PoWHash(header)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("PoW hash must be deterministic")
	}
	header[79] ^= 1
	h3, err := PoWHash(header)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("different header should hash differently")
	}
	if _, err := PoWHash(make([]byte, 79)); err == nil {
		t.Error("wrong header length should fail")
	}
}

func TestScratchpadIs128KB(t *testing.T) {
	// The paper's whole Litecoin analysis rests on the 128 KB working
	// set; Litecoin's N=1024, r=1 gives exactly that (ROMix keeps N
	// blocks of 128·r bytes).
	if got := 128 * R * N; got != 128*1024 {
		t.Errorf("scratchpad = %d bytes, want 128 KB", got)
	}
}

func TestRCASpecSRAMDominated(t *testing.T) {
	spec := RCA()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.SRAMPowerFraction < 0.5 {
		t.Error("Litecoin RCA should be SRAM-dominated")
	}
	if spec.SRAMVmin != 0.9 {
		t.Errorf("SRAM Vmin = %v, want 0.9 (paper §8)", spec.SRAMVmin)
	}
	// Much lower power density than Bitcoin's 2 W/mm².
	if spec.NominalPowerDensity > 0.5 {
		t.Errorf("power density %v should be far below Bitcoin's 2.0", spec.NominalPowerDensity)
	}
}
