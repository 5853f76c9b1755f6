package diskio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzStreamReader feeds arbitrary bytes to ReadRecord: every call returns
// a record that fits in the bytes read so far, or an error; it never
// panics, and a corrupt degree never allocates past the input.
func FuzzStreamReader(f *testing.F) {
	rec := func(id uint32, adj ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, id)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(adj)))
		for _, x := range adj {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
		return b
	}
	f.Add(append(rec(1, 2, 3, 4), rec(5)...))
	f.Add([]byte{})
	f.Add(rec(7, 1, 2, 3)[:14])
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255, 9, 0, 0, 0}) // degree 2³²-1

	f.Fuzz(func(t *testing.T, raw []byte) {
		r := &StreamReader{br: bufio.NewReader(bytes.NewReader(raw)), cm: CostModel{PageSize: 64}}
		var consumed int
		for {
			_, adj, err := r.ReadRecord()
			if err != nil {
				break
			}
			if consumed += 8 + 4*len(adj); consumed > len(raw) {
				t.Fatalf("records hold %d bytes of a %d-byte input", consumed, len(raw))
			}
			if cap(adj) > len(raw) {
				t.Fatalf("record of %d ids allocated %d for a %d-byte input", len(adj), cap(adj), len(raw))
			}
		}
	})
}
