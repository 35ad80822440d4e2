package cut

import (
	"math/rand"
	"testing"

	"repro/internal/xag"
)

func BenchmarkEnumerateK6(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := randomNetwork(rng, 10, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enumerate(n, Params{K: 6, Limit: 12})
	}
}

func BenchmarkEnumerateK4(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := randomNetwork(rng, 10, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enumerate(n, Params{K: 4, Limit: 12})
	}
}

// benchEnumerate enumerates md5 unranked and sha-256-round ranked by depth
// with one worker; BenchmarkEnumerate and BenchmarkEnumerateReference run
// it through the shipping kernel and the frozen reference
// (reference_test.go) on the same networks.
func benchEnumerate(b *testing.B, enumerate func(*xag.Network, Params) *Set) {
	for _, c := range []struct {
		name, circuit string
		ranked        bool
	}{{"md5", "md5", false}, {"sha-256-round/depth", "sha-256-round", true}} {
		n := buildCircuit(b, c.circuit)
		p := Params{}
		if c.ranked {
			p.Rank = depthRank(n)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enumerate(n, p)
			}
		})
	}
}

func BenchmarkEnumerate(b *testing.B) { benchEnumerate(b, Enumerate) }

func BenchmarkEnumerateReference(b *testing.B) { benchEnumerate(b, refEnumerate) }
