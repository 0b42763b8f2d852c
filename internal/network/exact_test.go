package network

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// fanInFinishes runs 8 senders × 4 flows into one sink with staggered
// starts, a mid-run SetBandwidth on the sink, and a partition-and-heal of
// one sender. The senders' egress links range from below to above their
// fair share of the sink, so progressive filling fixes flows at more than
// one level. Every completion is reported in completion order as
// "src<i>/<j>@<ns> <hash>", where hash covers the bit pattern of every
// started flow's rate at that instant.
func fanInFinishes() []string {
	env := sim.NewEnv()
	f := New(env)
	f.AddNode("sink", MBps(97.3), MBps(97.3))
	var out []string
	var flows []*Flow
	rates := func() uint64 {
		h := fnv.New64a()
		for _, fl := range flows {
			fmt.Fprintf(h, "%x,", math.Float64bits(fl.rate))
		}
		return h.Sum64()
	}
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf("src%d", i)
		f.AddNode(src, MBps(1.3+2.9*float64(i)), MBps(200))
		for j := 0; j < 4; j++ {
			size := int64(1+(i*7+j*3)%5)*1_000_000 + int64(i)*12_345 + int64(j)*678
			label := fmt.Sprintf("%s/%d", src, j)
			env.At(sim.Time(time.Duration(i*3+j*11)*time.Millisecond), func() {
				flows = append(flows, f.Send(src, "sink", size, func() {
					out = append(out, fmt.Sprintf("%s@%d %016x", label, int64(env.Now()), rates()))
				}))
			})
		}
	}
	env.At(sim.Time(200*time.Millisecond), func() { f.SetBandwidth("sink", MBps(41.7), MBps(41.7)) })
	env.At(sim.Time(300*time.Millisecond), func() { f.SetLinkFactor("src3", 0) })
	env.At(sim.Time(450*time.Millisecond), func() { f.SetLinkFactor("src3", 1) })
	env.Run()
	return out
}

// TestFanInExactInstants pins the nanosecond finish instant, the
// completion order and the exact rates of every flow in a contended
// fan-in. The solver's float operations must run in a fixed order for
// same-seed runs to be byte-identical, so any drift in that order shows up
// here as a changed value, not as a tolerance-sized wobble.
func TestFanInExactInstants(t *testing.T) {
	want := []string{
		"src5/0@295387846 17b282fa5c1c1213",
		"src6/1@329393318 f9ee4fbbb69d80e8",
		"src7/2@335951749 5c2b8658dfdba4bb",
		"src2/2@622515795 d8f604828013ec2f",
		"src3/3@730968189 1a77068466e70868",
		"src6/3@946247990 69d6560e33d10aa8",
		"src5/2@958679509 a91b318bfbe3a7de",
		"src1/1@964417143 d04a16f65829f114",
		"src4/1@971343961 63980aa691a36a20",
		"src3/0@1119041491 1e6210c28912feb9",
		"src6/0@1215831047 c5feadd837f8b5c5",
		"src7/1@1253832897 7ffe230eddb10181",
		"src4/3@1408538567 7f24174a882cb14a",
		"src3/2@1526347534 945241561fe85f30",
		"src2/1@1527917758 20d9bd72542776f0",
		"src4/0@1624464466 54e60ba976253945",
		"src7/3@1627193865 3fbda90cd73efa19",
		"src6/2@1629259397 5dacdb3b4ce7b2af",
		"src5/1@1630405073 cdf57fe13e3f2d4f",
		"src7/0@1705412679 9c1058354a9f45e2",
		"src1/3@1707171429 b6b16b2806c61b88",
		"src5/3@1767320824 cee1c35914e403ba",
		"src4/2@1770420397 cee1c35914e403ba",
		"src3/1@1808640840 cee1c35914e403ba",
		"src2/3@1828323204 bdb454dedd73dbe3",
		"src2/0@1948715129 bdb454dedd73dbe3",
		"src1/0@2142060001 e781e57bfe0d15fe",
		"src1/2@2396978096 e781e57bfe0d15fe",
		"src0/0@3029556411 c529727dc7fe94c6",
		"src0/2@5389877949 9cc2b03f315d820a",
		"src0/1@8454757949 258e3b5f0897940f",
		"src0/3@9234198462 258e3b5f0897940f",
	}
	got := fanInFinishes()
	if len(got) != len(want) {
		t.Fatalf("%d completions, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("completion %d = %s, want %s", i, got[i], want[i])
		}
	}
}
