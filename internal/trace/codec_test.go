package trace

import (
	"bytes"
	"errors"
	"testing"

	"mcddvfs/internal/isa"
)

// damagedRuns are encoded runs the decoder must refuse, each with the
// instruction count it claims and the error it must end with.
var damagedRuns = []struct {
	name string
	raw  []byte
	n    int64
	want error
}{
	{"empty run", nil, 1, errTruncated},
	{"short record", []byte{byte(isa.IntALU)}, 1, errTruncated},
	{"truncated PC varint", []byte{byte(isa.IntALU) | pcJumpBit, 0x80}, 1, errTruncated},
	{"truncated Dep1 varint", []byte{byte(isa.IntALU), 0x81}, 1, errTruncated},
	{"missing Dep2", []byte{byte(isa.IntALU) | dep2Bit, 1}, 1, errTruncated},
	{"short payload", []byte{byte(isa.Load) | 2<<lenShift, 1, 0xAA, 0xBB}, 1, errTruncated},
	{"truncated payload varint", []byte{byte(isa.Store) | lenVarint<<lenShift, 1, 0xFF}, 1, errTruncated},
	{"Dep1 past 32 bits", []byte{byte(isa.IntALU), 0x80, 0x80, 0x80, 0x80, 0x10}, 1, errVarint},
	{"PC varint past 64 bits", append([]byte{byte(isa.IntALU) | pcJumpBit}, bytes.Repeat([]byte{0xFF}, 11)...), 1, errVarint},
	{"invalid class", []byte{12, 1}, 1, errInvalidClass},
	{"invalid class after a good one", []byte{byte(isa.Nop), 1, opInvalid, 1}, 2, errInvalidClass},
	{"trailing bytes", []byte{byte(isa.Nop), 1, 0}, 1, errTrailing},
}

// TestInstRunRejectsDamage: every malformed run ends with its stream
// error, never a panic or an instruction decoded from bytes past the
// damage.
func TestInstRunRejectsDamage(t *testing.T) {
	for _, tc := range damagedRuns {
		run := instRun{buf: tc.raw, left: tc.n}
		var got int64
		for {
			if _, ok := run.next(); !ok {
				break
			}
			got++
		}
		if !errors.Is(run.err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, run.err, tc.want)
		}
		if got >= tc.n {
			t.Errorf("%s: decoded all %d instructions", tc.name, got)
		}
	}
}
