package netfault

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// okTransport answers every round trip with an empty 200 without touching
// the network.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("ok")), Request: req}, nil
}

// TestGoldenFireSequence pins the exact round trips each seed faults,
// including flap's burst-and-gap draws, seeded and unseeded.
func TestGoldenFireSequence(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"flap:23", "[2 5 6 8 11 16 18 19 24 25 29 30 34 35 38 39]"},
		{"flap", "[0 3 4 7 8 11 12 15 16 19 20 23 24 27 28 31 32 35 36 39]"},
		{"conn-reset:11:5", "[0 3 6 8 11]"},
	} {
		in := NewInjector()
		if err := in.ArmSpec(tc.spec, ""); err != nil {
			t.Fatal(err)
		}
		rt := in.Transport(okTransport{})
		var fired []int
		for i := 0; i < 40; i++ {
			req, _ := http.NewRequest(http.MethodGet, "http://shard-0/invoke", nil)
			if _, err := rt.RoundTrip(req); err != nil {
				fired = append(fired, i)
			}
		}
		if got := fmt.Sprint(fired); got != tc.want {
			t.Errorf("%s fired on %s, want %s", tc.spec, got, tc.want)
		}
	}
}
