package obs

import (
	"sync"
	"testing"
)

func TestCorrSourceDeterministic(t *testing.T) {
	a := NewCorrSource(42)
	b := NewCorrSource(42)
	for i := 0; i < 10; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("step %d: same seed diverged: %q vs %q", i, x, y)
		}
		if len(x) != 16 {
			t.Fatalf("step %d: id %q not 16 hex chars", i, x)
		}
		if SanitizeCorr(x) != x {
			t.Fatalf("step %d: minted id %q fails its own sanitizer", i, x)
		}
	}
	if NewCorrSource(1).Next() == NewCorrSource(2).Next() {
		t.Fatal("different seeds produced the same first id")
	}
}

func TestCorrSourceConcurrentUnique(t *testing.T) {
	src := NewCorrSource(7)
	const perG, goroutines = 200, 8
	var (
		mu   sync.Mutex
		seen = make(map[string]bool, perG*goroutines)
		wg   sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]string, 0, perG)
			for i := 0; i < perG; i++ {
				local = append(local, src.Next())
			}
			mu.Lock()
			for _, id := range local {
				if seen[id] {
					mu.Unlock()
					t.Errorf("duplicate correlation id %q", id)
					return
				}
				seen[id] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func TestSanitizeCorr(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"abc123", "abc123"},
		{"A-Z_09", "A-Z_09"},
		{"has space", ""},
		{"semi;colon", ""},
		{"newline\n", ""},
		{"quote\"", ""},
		{"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"},
		{"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdefX", ""},
	}
	for _, c := range cases {
		if got := SanitizeCorr(c.in); got != c.want {
			t.Errorf("SanitizeCorr(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCorrSourceKnownAnswer pins the minted ID sequence for seed 1 (the
// serve wide-event golden carries the first one).
func TestCorrSourceKnownAnswer(t *testing.T) {
	c := NewCorrSource(1)
	for i, want := range []string{"910a2dec89025cc1", "beeb8da1658eec67", "f893a2eefb32555e", "71c18690ee42c90b"} {
		if got := c.Next(); got != want {
			t.Fatalf("NewCorrSource(1) id %d = %q, want %q", i, got, want)
		}
	}
}
