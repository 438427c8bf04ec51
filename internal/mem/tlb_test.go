package mem

import (
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"widx/internal/warmstate"
)

// mapTLB is the map-backed TLB the array TLB replaced, kept as the
// reference for translation timing, hit/miss counts and victim choice.
type mapTLB struct {
	entries  int
	walkCyc  uint64
	inFlight int
	pageBits uint
	pages    map[uint64]uint64
	clock    uint64
	walks    []uint64
	hits     uint64
	misses   uint64
}

func newMapTLB(entries, pageBytes int, walkCyc uint64, inFlight int) *mapTLB {
	bits := uint(0)
	for 1<<bits < pageBytes {
		bits++
	}
	return &mapTLB{entries: entries, walkCyc: walkCyc, inFlight: inFlight, pageBits: bits,
		pages: make(map[uint64]uint64, entries)}
}

func (t *mapTLB) Translate(addr uint64, cycle uint64) (ready uint64, miss bool) {
	vpn := addr >> t.pageBits
	t.clock++
	if _, ok := t.pages[vpn]; ok {
		t.pages[vpn] = t.clock
		t.hits++
		return cycle, false
	}
	t.misses++
	start := cycle
	if len(t.walks) >= t.inFlight {
		live := t.walks[:0]
		for _, c := range t.walks {
			if c > cycle {
				live = append(live, c)
			}
		}
		t.walks = live
		if len(t.walks) >= t.inFlight {
			earliest := t.walks[0]
			idx := 0
			for i, c := range t.walks {
				if c < earliest {
					earliest, idx = c, i
				}
			}
			if earliest > start {
				start = earliest
			}
			t.walks = append(t.walks[:idx], t.walks[idx+1:]...)
		}
	}
	done := start + t.walkCyc
	t.walks = append(t.walks, done)
	t.insert(vpn)
	return done, true
}

func (t *mapTLB) insert(vpn uint64) {
	if len(t.pages) >= t.entries {
		var victim uint64
		oldest := ^uint64(0)
		for p, used := range t.pages {
			if used < oldest {
				oldest, victim = used, p
			}
		}
		delete(t.pages, victim)
	}
	t.pages[vpn] = t.clock
}

func (t *mapTLB) WarmPage(addr uint64) {
	t.clock++
	t.insert(addr >> t.pageBits)
}

// contentHash digests the reference's content exactly as TLBState.hashInto
// did when the snapshot held the page map.
func (t *mapTLB) contentHash() uint64 {
	h := warmstate.NewHasher()
	h.Word(uint64(t.entries))
	h.Word(uint64(t.pageBits))
	h.Word(t.clock)
	vpns := make([]uint64, 0, len(t.pages))
	for vpn := range t.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		h.Word(vpn)
		h.Word(t.pages[vpn])
	}
	return h.Sum()
}

func tlbHash(t *TLB) uint64 {
	h := warmstate.NewHasher()
	t.CaptureState().hashInto(h)
	return h.Sum()
}

// TestTLBMatchesMapReference drives the array TLB and the map reference
// with seeded streams of translations and warm-ups — working sets below,
// at and above the entry count, re-warms of resident pages in a full TLB,
// and non-monotonic cycles against the walk limit — and requires the same
// ready cycle, miss flag, counters and content hash throughout, including
// across a capture/restore into a fresh TLB.
func TestTLBMatchesMapReference(t *testing.T) {
	const pageBytes = 4096
	for _, entries := range []int{1, 2, 3, 16, 128} {
		for _, inFlight := range []int{1, 2, 4} {
			r := rand.New(rand.NewPCG(uint64(entries), uint64(inFlight)))
			got := NewTLB(entries, pageBytes, 40, inFlight)
			want := newMapTLB(entries, pageBytes, 40, inFlight)
			pages := uint64(2*entries + 3)
			cycle := uint64(1000)
			for i := range 20_000 {
				// A skewed page choice: half the draws come from a hot set
				// that fits the TLB.
				vpn := r.Uint64N(pages)
				if r.IntN(2) == 0 {
					vpn = r.Uint64N(uint64(entries/2 + 1))
				}
				addr := vpn*pageBytes + r.Uint64N(pageBytes)
				cycle = cycle + r.Uint64N(30) - 10
				if r.IntN(8) == 0 {
					got.WarmPage(addr)
					want.WarmPage(addr)
				} else {
					gr, gm := got.Translate(addr, cycle)
					wr, wm := want.Translate(addr, cycle)
					if gr != wr || gm != wm {
						t.Fatalf("entries=%d inFlight=%d step %d: Translate(%#x, %d) = (%d, %v), reference (%d, %v)",
							entries, inFlight, i, addr, cycle, gr, gm, wr, wm)
					}
				}
				if got.Hits() != want.hits || got.Misses() != want.misses || got.n != len(want.pages) {
					t.Fatalf("entries=%d inFlight=%d step %d: %d hits %d misses %d resident, reference %d %d %d",
						entries, inFlight, i, got.Hits(), got.Misses(), got.n, want.hits, want.misses, len(want.pages))
				}
				if i%997 == 0 {
					if g, w := tlbHash(got), want.contentHash(); g != w {
						t.Fatalf("entries=%d inFlight=%d step %d: content hash %#x, reference %#x", entries, inFlight, i, g, w)
					}
				}
				if i == 10_000 {
					// Continue on a restored copy: restore carries the
					// content and drops walks and counters on both sides.
					restored := NewTLB(entries, pageBytes, 40, inFlight)
					restored.RestoreState(got.CaptureState())
					got = restored
					want.walks, want.hits, want.misses = nil, 0, 0
				}
			}
			if g, w := tlbHash(got), want.contentHash(); g != w {
				t.Fatalf("entries=%d inFlight=%d: final content hash %#x, reference %#x", entries, inFlight, g, w)
			}
		}
	}
}

// legacyBlobLevel and legacyBlobWarm rebuild the warm-up that produced
// testdata/warmstate_v1.bin with the map-backed TLB: two agents with small
// full TLBs over 4 KiB pages and a 64 KiB LLC.
func legacyBlobLevel() (*SharedLevel, []*Hierarchy) {
	top := DefaultTopology()
	top.Shared.LLCSizeBytes = 64 * 1024
	top.Private.L1SizeBytes = 4 * 1024
	top.Private.PageBytes = 4096
	a := top.Agent("a")
	a.TLBEntries = 16
	b := top.Agent("b")
	b.TLBEntries = 8
	b.LLCWays = 4
	sl := NewSharedLevel(top)
	return sl, []*Hierarchy{sl.NewAgent(a), sl.NewAgent(b)}
}

func legacyBlobWarm(agents []*Hierarchy) {
	for i := 0; i < 3000; i++ {
		addr := uint64(0x100000) + uint64((i*7919)%40000)*64
		if i%3 == 0 {
			agents[i%2].WarmBlock(addr)
		} else {
			agents[i%2].WarmLLCOnly(addr)
		}
	}
}

// legacyBlobHash is the ContentHash the map-backed TLB computed for the
// snapshot in testdata/warmstate_v1.bin.
const legacyBlobHash = 0xbd9058ef44121fee

// TestWarmStateLegacyBlob checks that a warm-state payload encoded before
// the TLB moved to array storage still decodes, hashes and restores to
// the same content, and that today's capture of the same warm-up encodes
// to the same bytes.
func TestWarmStateLegacyBlob(t *testing.T) {
	blob, err := os.ReadFile("testdata/warmstate_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := DecodeWarmState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := ws.ContentHash(); got != legacyBlobHash {
		t.Fatalf("legacy snapshot hashes %#x, want %#x", got, uint64(legacyBlobHash))
	}
	sl, agents := legacyBlobLevel()
	legacyBlobWarm(agents)
	if got := sl.CaptureWarmState().EncodeBinary(); string(got) != string(blob) {
		t.Fatal("the same warm-up no longer encodes to the legacy payload")
	}
	restored, _ := legacyBlobLevel()
	restored.RestoreWarmState(ws)
	if got := restored.CaptureWarmState().ContentHash(); got != legacyBlobHash {
		t.Fatalf("restored legacy snapshot hashes %#x, want %#x", got, uint64(legacyBlobHash))
	}
}

// TestWarmStateCodecRejectsBadTLB rejects TLB sections the array TLB could
// not restore: pages out of ascending order (or repeated), and more
// translations than entries.
func TestWarmStateCodecRejectsBadTLB(t *testing.T) {
	for name, corrupt := range map[string]func(st *TLBState){
		"unordered": func(st *TLBState) { st.vpns[0], st.vpns[1] = st.vpns[1], st.vpns[0] },
		"repeated":  func(st *TLBState) { st.vpns[1] = st.vpns[0] },
		"overfull":  func(st *TLBState) { st.entries = len(st.vpns) - 1 },
	} {
		sl, agents := legacyBlobLevel()
		legacyBlobWarm(agents)
		ws := sl.CaptureWarmState()
		corrupt(ws.agents[0].tlb)
		if _, err := DecodeWarmState(ws.EncodeBinary()); err == nil {
			t.Errorf("%s TLB section decoded without error", name)
		}
	}
}
