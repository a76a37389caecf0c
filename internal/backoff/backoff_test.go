package backoff

import (
	"testing"
	"time"
)

func TestJitterBounds(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 100; i++ {
		j := Jitter(d)
		if j < d/2 || j >= d {
			t.Fatalf("Jitter(%s) = %s out of [%s, %s)", d, j, d/2, d)
		}
	}
	if Jitter(0) != 0 || Jitter(1) != 1 {
		t.Fatal("Jitter must pass tiny delays through")
	}
}
