package wire

import (
	"errors"
	"strings"
	"testing"
)

type msg struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch,omitempty"`
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	b := Get()
	defer Put(b)
	in := msg{ID: "w-1", Epoch: 7}
	if err := b.Encode(in); err != nil {
		t.Fatal(err)
	}
	if got := string(b.Bytes()); got != `{"id":"w-1","epoch":7}`+"\n" {
		t.Fatalf("encoded %q", got)
	}
	var out msg
	if err := b.Unmarshal(&out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
	if b.bad {
		t.Fatal("clean roundtrip marked the Buf contaminated")
	}
}

func TestReadAllDrainsPastLimit(t *testing.T) {
	b := Get()
	defer Put(b)
	src := strings.NewReader("0123456789")
	if err := b.ReadAll(src, 4); !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrUndrained) {
		t.Fatalf("over-limit body with a short tail: err = %v, want ErrTooLarge (drained)", err)
	}
	if got := string(b.Bytes()); got != "0123" {
		t.Fatalf("kept %q, want the first 4 bytes", got)
	}
	if src.Len() != 0 {
		t.Fatalf("%d bytes left unread: the tail must be drained for keep-alive", src.Len())
	}
}

func TestReadAllExactLimit(t *testing.T) {
	b := Get()
	defer Put(b)
	if err := b.ReadAll(strings.NewReader("0123"), 4); err != nil {
		t.Fatalf("body of exactly the limit refused: %v", err)
	}
	if got := string(b.Bytes()); got != "0123" {
		t.Fatalf("kept %q", got)
	}
}

// TestReadAllBoundsTheDrain pins the drain budget: a tail far past the
// limit is not read to its end, ReadAll reports ErrUndrained, and it reads
// at most limit+DrainBudget bytes in all.
func TestReadAllBoundsTheDrain(t *testing.T) {
	b := Get()
	defer Put(b)
	const limit, size = 1 << 10, 8 << 20
	src := strings.NewReader(strings.Repeat("x", size))
	err := b.ReadAll(src, limit)
	if !errors.Is(err, ErrUndrained) || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrUndrained wrapping ErrTooLarge", err)
	}
	if b.Len() != limit {
		t.Fatalf("kept %d bytes, want %d", b.Len(), limit)
	}
	if read := size - src.Len(); read > limit+DrainBudget {
		t.Fatalf("read %d bytes, budget is %d", read, limit+DrainBudget)
	}
}

func TestTrailingGarbageContaminates(t *testing.T) {
	b := Get()
	b.buf.WriteString(`{"id":"a"} GARBAGE`)
	var out msg
	// Decoder semantics: the value itself still decodes.
	if err := b.Unmarshal(&out); err != nil {
		t.Fatalf("value before garbage failed to decode: %v", err)
	}
	if out.ID != "a" {
		t.Fatalf("decoded %+v", out)
	}
	if !b.bad {
		t.Fatal("trailing garbage did not contaminate the Buf")
	}
	Put(b) // must drop, not pool — nothing to assert beyond not panicking

	b2 := Get()
	defer Put(b2)
	b2.buf.WriteString("{nope")
	if err := b2.Unmarshal(&out); err == nil {
		t.Fatal("malformed payload decoded")
	}
	if !b2.bad {
		t.Fatal("decode error did not contaminate the Buf")
	}
}

func TestWhitespaceTailStaysClean(t *testing.T) {
	b := Get()
	defer Put(b)
	for i := 0; i < 3; i++ {
		b.Reset()
		b.buf.WriteString(`{"id":"a","epoch":1}` + " \t\r\n")
		var out msg
		if err := b.Unmarshal(&out); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if b.bad {
			t.Fatalf("iter %d: whitespace tail contaminated the Buf", i)
		}
	}
}

func TestCloneOutlivesReset(t *testing.T) {
	b := Get()
	defer Put(b)
	b.buf.WriteString("original")
	c := b.Clone()
	b.Reset()
	b.buf.WriteString("overwritten")
	if string(c) != "original" {
		t.Fatalf("clone mutated to %q", c)
	}
}

func TestOversizedBufNotPooled(t *testing.T) {
	b := Get()
	b.buf.Grow(maxPooledCap + 1)
	Put(b) // must drop silently
	if got := Get(); got == b {
		// Possible only if the oversized Buf was pooled; another goroutine's
		// Buf colliding here cannot happen in a serial test.
		t.Fatal("oversized Buf returned to the pool")
	}
}

func TestReaderTracksBuffer(t *testing.T) {
	b := Get()
	defer Put(b)
	b.buf.WriteString("abc")
	r := b.Reader()
	got := make([]byte, 3)
	if n, _ := r.Read(got); n != 3 || string(got) != "abc" {
		t.Fatalf("read %q (%d bytes)", got[:n], n)
	}
}
