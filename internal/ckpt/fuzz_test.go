package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"paradl/internal/ckpt"
)

// FuzzDecode: no byte string panics the decoder, and any input that
// decodes re-encodes to a file that decodes to an equal state. Each
// input is tried as given and with its last 32 bytes replaced by a
// valid SHA-256 trailer, so mutations also reach the header and payload
// parsing behind the checksum. The committed corpus (testdata/fuzz)
// seeds an encoded real state plus the two forged headers that used to
// panic or decode silently:
//
//	go test ./internal/ckpt -run '^$' -fuzz FuzzDecode -fuzztime 15s
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= sha256.Size {
			body := b[:len(b)-sha256.Size]
			sum := sha256.Sum256(body)
			inputs = append(inputs, append(body[:len(body):len(body)], sum[:]...))
		}
		for _, in := range inputs {
			s, err := ckpt.Decode(in)
			if err != nil {
				continue
			}
			enc, err := s.Encode()
			if err != nil {
				t.Fatalf("decoded state does not re-encode: %v", err)
			}
			again, err := ckpt.Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			assertStateEq(t, again, s)
			// Streams are outside assertStateEq; the canonical encoding
			// covers every field.
			if reenc, _ := again.Encode(); !bytes.Equal(reenc, enc) {
				t.Fatal("re-decoded state encodes differently")
			}
		}
	})
}
