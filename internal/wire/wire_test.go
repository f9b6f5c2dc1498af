package wire

import (
	"fmt"
	"strings"
	"testing"

	"streamdex/internal/dht"
)

// smallPayload has no codec: the stand-in for a payload type someone
// forgot to register.
type smallPayload struct {
	A int
	B string
}

// vectorPayload travels through a test-registered packed codec. Tag 220
// is clear of the protocol's allocations (1-40) and packed_test's probes.
type vectorPayload struct {
	Values []float64
}

type vectorCodec struct{}

func (vectorCodec) Append(dst []byte, payload any) ([]byte, error) {
	v := payload.(vectorPayload)
	if len(v.Values) == 0 {
		return nil, fmt.Errorf("empty vector")
	}
	return AppendFloats(dst, v.Values), nil
}

func (vectorCodec) Decode(data []byte) (any, error) {
	r := NewReader(data)
	v := vectorPayload{Values: r.Floats()}
	return v, r.Done()
}

func init() { RegisterPackedPayload(220, vectorPayload{}, vectorCodec{}) }

func TestNilPayloadCostsHeaderOnly(t *testing.T) {
	if got := Sizeof(nil); got != HeaderBytes {
		t.Fatalf("Sizeof(nil) = %d, want %d", got, HeaderBytes)
	}
}

func TestSizeofGrowsWithContent(t *testing.T) {
	small := Sizeof(vectorPayload{Values: make([]float64, 3)})
	big := Sizeof(vectorPayload{Values: make([]float64, 100)})
	// Header, tag byte and a one-byte count either way: the 97 extra
	// floats cost exactly one 8-byte word each.
	if big-small != 97*8 {
		t.Fatalf("3 floats cost %d B, 100 floats %d B: marginal %d B, want %d", small, big, big-small, 97*8)
	}
}

func TestSizeofDeterministic(t *testing.T) {
	p := vectorPayload{Values: []float64{42, -1.5}}
	if a, b := Sizeof(p), Sizeof(p); a != b {
		t.Fatalf("Sizeof not deterministic: %d then %d", a, b)
	}
}

// TestSizeofUnencodablePanics: sizing a payload that cannot travel is a
// programming mistake, and the panic names the offending type — whether
// the type has no codec at all or its codec refuses the value.
func TestSizeofUnencodablePanics(t *testing.T) {
	for _, p := range []any{smallPayload{A: 1}, vectorPayload{}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("%T", p); !strings.Contains(msg, want) {
					t.Errorf("Sizeof(%s) panicked with %q, want the type named", want, msg)
				}
			}()
			Sizeof(p)
		}()
	}
}

// TestPayloadPathRejections pins what took the place of the second payload
// encoding: a payload is a codec tag plus packed bytes or it is an error.
func TestPayloadPathRejections(t *testing.T) {
	if _, err := Marshal(&dht.Message{Kind: 240, Payload: smallPayload{}}); err == nil ||
		!strings.Contains(err.Error(), "smallPayload") {
		t.Errorf("Marshal of a codec-less payload: err %v, want one naming the type", err)
	}

	bare, err := Marshal(&dht.Message{Kind: 240, Key: 1, Src: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Marshal(&dht.Message{Kind: 240, Key: 1, Src: 2, Payload: vectorPayload{Values: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	// mangle copies base, sets flag bits and appends body bytes.
	mangle := func(base []byte, set byte, body ...byte) []byte {
		f := append(append([]byte(nil), base...), body...)
		f[33] |= set
		return f
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"bit 7 on a payload-less frame", mangle(bare, flagReserved), "reserved"},
		{"bit 7 on a payload frame", mangle(good, flagReserved), "reserved"},
		{"payload flag with empty body", mangle(bare, flagPayload), "without codec tag"},
		{"unknown tag", mangle(bare, flagPayload, 255, 0), "tag 255"},
	} {
		if _, err := Unmarshal(tc.frame); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := Unmarshal(good); err != nil {
		t.Errorf("control frame rejected: %v", err)
	}
}
