package tlsrec

import (
	"crypto/sha256"
	"encoding/binary"
)

// keystream generates the toy XOR pad for one record from the session key
// and the record's sequence number: block i is SHA-256(key ‖ seq ‖ i).
// Deterministic, self-consistent, size-preserving — and worthless as real
// cryptography, which is fine: the threat model here is an adversary who
// never decrypts.
func keystream(key [32]byte, seq uint64, n int) []byte {
	return keystreamInto(make([]byte, 0, n+sha256.Size), key, seq, n)
}

// keystreamInto writes the pad into buf (grown as needed) and returns it,
// letting a Conn reuse one scratch buffer across records.
func keystreamInto(buf []byte, key [32]byte, seq uint64, n int) []byte {
	out := buf[:0]
	var block [8 + 8 + 32]byte
	copy(block[16:], key[:])
	binary.BigEndian.PutUint64(block[:8], seq)
	for i := uint64(0); len(out) < n; i++ {
		binary.BigEndian.PutUint64(block[8:16], i)
		sum := sha256.Sum256(block[:])
		out = append(out, sum[:]...)
	}
	return out[:n]
}

// xorInto XORs pad into dst in place, eight bytes per step with a byte
// tail. pad must be at least as long as dst.
func xorInto(dst, pad []byte) {
	pad = pad[:len(dst)]
	i := 0
	for ; len(dst)-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for ; i < len(dst); i++ {
		dst[i] ^= pad[i]
	}
}

// mac computes the truncated record MAC over (key, seq, content type,
// ciphertext).
func mac(key [32]byte, seq uint64, ct ContentType, ciphertext []byte) [TagSize]byte {
	tag, _ := macInto(nil, key, seq, ct, ciphertext)
	return tag
}

// macInto is mac with a caller-owned scratch buffer: it assembles the exact
// byte stream mac hashes — key ‖ seq ‖ content type ‖ ciphertext — in
// scratch and digests it with the stack-based sha256.Sum256, avoiding the
// streaming API's hash-state and Sum allocations. Returns the tag and the
// (possibly grown) scratch for reuse.
func macInto(scratch []byte, key [32]byte, seq uint64, ct ContentType, ciphertext []byte) ([TagSize]byte, []byte) {
	scratch = append(scratch[:0], key[:]...)
	var hdr [9]byte
	binary.BigEndian.PutUint64(hdr[:8], seq)
	hdr[8] = byte(ct)
	scratch = append(scratch, hdr[:]...)
	scratch = append(scratch, ciphertext...)
	sum := sha256.Sum256(scratch)
	var tag [TagSize]byte
	copy(tag[:], sum[:])
	return tag, scratch
}

// deriveKey combines the two hello randoms into the session key.
func deriveKey(clientRandom, serverRandom [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("h2privacy toy key derivation"))
	h.Write(clientRandom[:])
	h.Write(serverRandom[:])
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}
