package tlsrec

import (
	"encoding/hex"
	"testing"
)

// sealKAT is the wire form of one application-data record sealed by
// pipePair's client right after the handshake: header, explicit sequence
// number, ciphertext and truncated MAC. The 43-byte plaintext covers five
// whole 8-byte XOR words plus a 3-byte tail.
const sealKAT = "17030300430000000000000000cb88d80b5f012d0a33693f582d45eeadb6c1b071cdb6f47cf2253daf4977dac6addb22bfc3491ddefe2b6a375a79a6d6b86e0bbffbc5ff9e85461a"

// TestSealKnownAnswer pins the record layer's wire bytes — keystream, XOR
// and MAC together — against a fixed answer, so a change to any of them
// that the round-trip tests would accept (both ends changing alike) fails.
func TestSealKnownAnswer(t *testing.T) {
	client, server := pipePair()
	client.Start()
	var wire []byte
	client.output = func(b []byte) { wire = append(wire, b...) }
	plaintext := []byte("GET /polls/2020-presidential/results HTTP/2")
	if len(plaintext) != 43 {
		t.Fatalf("plaintext is %d bytes, want 43", len(plaintext))
	}
	if err := client.Send(ContentApplicationData, plaintext); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(wire); got != sealKAT {
		t.Fatalf("sealed record =\n%s\nwant\n%s", got, sealKAT)
	}
	var opened string
	server.OnRecord(func(_ ContentType, p []byte) { opened = string(p) })
	if err := server.Feed(wire); err != nil {
		t.Fatal(err)
	}
	if opened != string(plaintext) {
		t.Fatalf("server opened %q, want %q", opened, plaintext)
	}
}
