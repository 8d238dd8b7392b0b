package litecoin

import (
	"encoding/binary"
	"fmt"

	"asiccloud/internal/apps/bitcoin"
)

// hmacSHA256 computes HMAC-SHA256(key, data) using the package's own
// SHA-256 (shared with the Bitcoin substrate).
func hmacSHA256(key, data []byte) [32]byte {
	const blockSize = 64
	var k [blockSize]byte
	if len(key) > blockSize {
		h := bitcoin.Sum256(key)
		copy(k[:], h[:])
	} else {
		copy(k[:], key)
	}
	ipad := make([]byte, blockSize, blockSize+len(data))
	opad := make([]byte, blockSize, blockSize+32)
	for i := 0; i < blockSize; i++ {
		ipad[i] = k[i] ^ 0x36
		opad[i] = k[i] ^ 0x5c
	}
	inner := bitcoin.Sum256(append(ipad, data...))
	return bitcoin.Sum256(append(opad, inner[:]...))
}

// pbkdf2SHA256 derives dkLen bytes from the password and salt with the
// given iteration count (RFC 2898 with HMAC-SHA256 as the PRF).
func pbkdf2SHA256(password, salt []byte, iterations, dkLen int) []byte {
	out := make([]byte, 0, dkLen)
	var block uint32 = 1
	for len(out) < dkLen {
		msg := make([]byte, len(salt)+4)
		copy(msg, salt)
		binary.BigEndian.PutUint32(msg[len(salt):], block)
		u := hmacSHA256(password, msg)
		t := u
		for i := 1; i < iterations; i++ {
			u = hmacSHA256(password, u[:])
			for j := range t {
				t[j] ^= u[j]
			}
		}
		out = append(out, t[:]...)
		block++
	}
	return out[:dkLen]
}

// salsa208 applies the Salsa20/8 core permutation to a 64-byte block in
// place (16 little-endian words, 8 rounds).
func salsa208(b *[16]uint32) {
	x := *b
	for round := 0; round < 8; round += 2 {
		// Column round.
		x[4] ^= rotl(x[0]+x[12], 7)
		x[8] ^= rotl(x[4]+x[0], 9)
		x[12] ^= rotl(x[8]+x[4], 13)
		x[0] ^= rotl(x[12]+x[8], 18)
		x[9] ^= rotl(x[5]+x[1], 7)
		x[13] ^= rotl(x[9]+x[5], 9)
		x[1] ^= rotl(x[13]+x[9], 13)
		x[5] ^= rotl(x[1]+x[13], 18)
		x[14] ^= rotl(x[10]+x[6], 7)
		x[2] ^= rotl(x[14]+x[10], 9)
		x[6] ^= rotl(x[2]+x[14], 13)
		x[10] ^= rotl(x[6]+x[2], 18)
		x[3] ^= rotl(x[15]+x[11], 7)
		x[7] ^= rotl(x[3]+x[15], 9)
		x[11] ^= rotl(x[7]+x[3], 13)
		x[15] ^= rotl(x[11]+x[7], 18)
		// Row round.
		x[1] ^= rotl(x[0]+x[3], 7)
		x[2] ^= rotl(x[1]+x[0], 9)
		x[3] ^= rotl(x[2]+x[1], 13)
		x[0] ^= rotl(x[3]+x[2], 18)
		x[6] ^= rotl(x[5]+x[4], 7)
		x[7] ^= rotl(x[6]+x[5], 9)
		x[4] ^= rotl(x[7]+x[6], 13)
		x[5] ^= rotl(x[4]+x[7], 18)
		x[11] ^= rotl(x[10]+x[9], 7)
		x[8] ^= rotl(x[11]+x[10], 9)
		x[9] ^= rotl(x[8]+x[11], 13)
		x[10] ^= rotl(x[9]+x[8], 18)
		x[12] ^= rotl(x[15]+x[14], 7)
		x[13] ^= rotl(x[12]+x[15], 9)
		x[14] ^= rotl(x[13]+x[12], 13)
		x[15] ^= rotl(x[14]+x[13], 18)
	}
	for i := range b {
		b[i] += x[i]
	}
}

func rotl(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

// blockMix is scrypt's BlockMix_salsa20/8,r operating on 2r 64-byte
// sub-blocks held as uint32 words.
func blockMix(b []uint32, r int) {
	n := 2 * r
	var x [16]uint32
	copy(x[:], b[(n-1)*16:])
	y := make([]uint32, len(b))
	for i := 0; i < n; i++ {
		for j := 0; j < 16; j++ {
			x[j] ^= b[i*16+j]
		}
		salsa208(&x)
		// Even sub-blocks to the front half, odd to the back.
		var dst int
		if i%2 == 0 {
			dst = (i / 2) * 16
		} else {
			dst = (r + i/2) * 16
		}
		copy(y[dst:dst+16], x[:])
	}
	copy(b, y)
}

// roMix is scrypt's sequential-memory-hard core: fill an N-entry vector
// V with successive BlockMix states, then walk it data-dependently. For
// Litecoin (N=1024, r=1) V is exactly the 128 KB scratchpad that makes
// the RCA SRAM-dominated.
func roMix(b []uint32, n, r int) {
	words := 32 * r
	v := make([]uint32, n*words)
	for i := 0; i < n; i++ {
		copy(v[i*words:(i+1)*words], b)
		blockMix(b, r)
	}
	for i := 0; i < n; i++ {
		j := int(b[(2*r-1)*16]) & (n - 1)
		for w := 0; w < words; w++ {
			b[w] ^= v[j*words+w]
		}
		blockMix(b, r)
	}
}

// Key derives a dkLen-byte scrypt key (RFC 7914). N must be a power of
// two greater than 1.
func Key(password, salt []byte, n, r, p, dkLen int) ([]byte, error) {
	if n <= 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("litecoin: scrypt N=%d must be a power of two > 1", n)
	}
	if r <= 0 || p <= 0 || dkLen <= 0 {
		return nil, fmt.Errorf("litecoin: scrypt r, p, dkLen must be positive")
	}
	blockBytes := 128 * r
	b := pbkdf2SHA256(password, salt, 1, p*blockBytes)
	for i := 0; i < p; i++ {
		words := make([]uint32, 32*r)
		for w := range words {
			words[w] = binary.LittleEndian.Uint32(b[i*blockBytes+w*4:])
		}
		roMix(words, n, r)
		for w, v := range words {
			binary.LittleEndian.PutUint32(b[i*blockBytes+w*4:], v)
		}
	}
	return pbkdf2SHA256(password, b, 1, dkLen), nil
}

// Litecoin's proof-of-work parameters.
const (
	N = 1024
	R = 1
	P = 1
)

// PoWHash computes the Litecoin proof-of-work hash of an 80-byte block
// header: scrypt with the header as both password and salt.
func PoWHash(header []byte) ([32]byte, error) {
	var out [32]byte
	if len(header) != 80 {
		return out, fmt.Errorf("litecoin: header must be 80 bytes, got %d", len(header))
	}
	dk, err := Key(header, header, N, R, P, 32)
	if err != nil {
		return out, err
	}
	copy(out[:], dk)
	return out, nil
}
