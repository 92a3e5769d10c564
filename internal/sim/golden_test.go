package sim_test

// Cross-commit golden pin for the serving engine: every artifact a node
// run produces — Outcome (floats in hex), sim.Trace, metrics snapshot,
// Perfetto JSON, attribution ledger and report, occupancy — is hashed
// per case and compared with digests recorded before the engine was
// restructured. A refactor that changes any byte of any artifact, or
// MeetsSLA's verdict, fails here with the case name and the new digest.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"planaria/internal/arch"
	"planaria/internal/compiler"
	"planaria/internal/dnn"
	"planaria/internal/energy"
	"planaria/internal/fault"
	"planaria/internal/obs"
	"planaria/internal/prema"
	"planaria/internal/sched"
	"planaria/internal/sim"
	"planaria/internal/simtime"
	"planaria/internal/workload"
)

// allocOnly hides Spatial's SliceAllocator and HealthAware methods, so
// the engine drives it through the map-returning Allocate alone.
type allocOnly struct{ sp *sched.Spatial }

func (a allocOnly) Name() string     { return "alloc-only" }
func (a allocOnly) Quantum() float64 { return a.sp.Quantum() }
func (a allocOnly) Allocate(now float64, tasks []*sim.Task, total int) map[int]int {
	return a.sp.Allocate(now, tasks, total)
}

var goldenPolicies = []struct {
	name string
	make func(cfg arch.Config, iso float64) sim.Policy
}{
	{"spatial", func(cfg arch.Config, _ float64) sim.Policy { return sched.NewSpatial(cfg) }},
	{"prema", func(cfg arch.Config, _ float64) sim.Policy { return prema.NewToken(cfg) }},
	{"elastic", func(cfg arch.Config, iso float64) sim.Policy {
		// The default 200 µs wakeup floor suits millisecond-scale
		// models; the toy models finish in microseconds.
		e := sched.NewElastic(cfg)
		e.MinIntervalS = 0.02 * iso
		return e
	}},
	{"fcfs", func(cfg arch.Config, _ float64) sim.Policy { return sched.NewFCFS(cfg) }},
	{"equal", func(cfg arch.Config, _ float64) sim.Policy { return sched.NewEqualShare(cfg) }},
	{"alloconly", func(cfg arch.Config, _ float64) sim.Policy { return allocOnly{sched.NewSpatial(cfg)} }},
}

// goldenFaults: none, transient/permanent faults under fission masking
// and under derating (both with a retry budget), and a chip whose every
// pod link dies mid-run, which drains everything left as shed.
var goldenFaults = []string{"none", "fission", "derate", "dead"}

// goldenStreams cover the engine's three input-position paths:
// identity IDs on a sorted stream (aliased calendar), identity IDs on a
// stream with ties and step-backs (copy-and-sort), strictly increasing
// non-identity IDs on a sorted stream (aliased, no ID map), and
// decreasing IDs on an unsorted stream (copy-and-sort plus the ID map).
var goldenStreams = []string{"sorted", "unsorted", "ids", "unsorted-ids"}

var goldenShed = []sim.ShedPolicy{sim.ShedNone, sim.ShedDoomed, sim.ShedPriority}

// goldenModels compiles two toy models of different shapes.
func goldenModels(t testing.TB, cfg arch.Config) map[string]*compiler.Program {
	t.Helper()
	progs := map[string]*compiler.Program{}
	for _, m := range []struct {
		name       string
		c1, c2, st int
		fc         int
	}{{"toy-a", 32, 64, 2, 10}, {"toy-b", 64, 64, 1, 100}} {
		b := dnn.NewBuilder(m.name, "classification", 32, 32, 8)
		b.Conv("c1", m.c1, 3, 1)
		b.Conv("c2", m.c2, 3, m.st)
		b.GlobalPool("gp")
		b.FC("fc", m.fc)
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := compiler.CompileProgram(net, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		progs[m.name] = p
	}
	return progs
}

// goldenStream draws 32 requests of one stream kind. "sorted" is light
// and generous, so fault-free runs meet the SLA; "ids" comes in bursts
// with tight deadlines, which is where elastic re-fission acts; the two
// unsorted kinds add hopeless deadlines, for both shed policies, and
// requests for a model the node does not serve.
func goldenStream(kind string, iso float64) []workload.Request {
	rng := rand.New(rand.NewSource(int64(len(kind)) * 7919))
	domains := []string{"classification", "detection"}
	qos := []float64{1.2 * iso, 3 * iso, 8 * iso, 30 * iso, 0.5 * iso}
	reqs := make([]workload.Request, 32)
	at := 0.0
	for i := range reqs {
		q := qos[rng.Intn(4)]
		model := []string{"toy-a", "toy-b"}[rng.Intn(2)]
		id := i
		switch kind {
		case "sorted":
			at += float64(2+rng.Intn(6)) * iso
			q = 30 * iso
		case "ids":
			// Groups of eight: a tight front request that takes most of
			// the chip, then a burst of looser ones that stall behind it.
			id = 10 + 3*i
			model, q = "toy-a", 3*iso
			switch {
			case i%8 == 0 && i > 0:
				at += 4 * iso
				q = 1.2 * iso
			case i > 0:
				at += 0.02 * iso
			default:
				q = 1.2 * iso
			}
		default:
			if kind == "unsorted-ids" {
				id = 500 - 7*i
			}
			switch rng.Intn(4) {
			case 0: // tie
			case 1: // step back
				at = math.Max(0, at-float64(rng.Intn(3))*iso/4)
			default:
				at += float64(1+rng.Intn(4)) * iso / 5
			}
			q = qos[rng.Intn(len(qos))]
			if rng.Intn(10) == 0 {
				model = "no-such-model"
			}
		}
		reqs[i] = workload.Request{
			ID: id, Model: model, Domain: domains[rng.Intn(2)],
			Arrival: at, Priority: 1 + rng.Intn(11), QoS: q, Deadline: at + q,
			Level: "QoS-M", Work: []float64{0, 0, 1, 2.5}[rng.Intn(4)],
		}
		switch kind {
		case "sorted":
			reqs[i].Work = 0
		case "ids":
			reqs[i].Priority, reqs[i].Work = 5+i%3, 0
		}
	}
	return reqs
}

// goldenSchedule returns the fault schedule of kind over the stream's span.
func goldenSchedule(t testing.TB, kind string, horizon float64) *fault.Schedule {
	t.Helper()
	switch kind {
	case "fission", "derate":
		s, err := fault.Generate(16, 4, 10/horizon, horizon, horizon/20, 29)
		if err != nil {
			t.Fatal(err)
		}
		return s
	case "dead":
		s := &fault.Schedule{Units: 16, Pods: 4}
		for pod := 0; pod < s.Pods; pod++ {
			s.Events = append(s.Events, fault.Event{Time: 0.4 * horizon, Kind: fault.KindLink, Unit: pod})
		}
		return s
	}
	return nil
}

// goldenNode builds a fresh node (policies and injectors are stateful).
func goldenNode(t testing.TB, cfg arch.Config, progs map[string]*compiler.Program, pol int,
	faultKind string, schedule *fault.Schedule, shed sim.ShedPolicy) *sim.Node {
	t.Helper()
	n := &sim.Node{Cfg: cfg, Policy: goldenPolicies[pol].make(cfg, cfg.Seconds(progs["toy-a"].Table(cfg.NumSubarrays()).TotalCycles)), Programs: progs,
		Params: energy.Default(), Shed: shed}
	if schedule != nil {
		in, err := fault.NewInjector(schedule)
		if err != nil {
			t.Fatal(err)
		}
		n.Faults, n.MaxAttempts = in, 2
		if faultKind == "derate" {
			n.FaultMode = sim.FaultDerate
		}
	}
	return n
}

func hexf(h hash.Hash, v float64) {
	fmt.Fprintf(h, "%s ", strconv.FormatFloat(v, 'x', -1, 64))
}

// goldenDigest runs one case with every sink attached and hashes all of
// its artifacts plus the sink-free MeetsSLA verdict.
func goldenDigest(t *testing.T, cfg arch.Config, progs map[string]*compiler.Program,
	pol int, faultKind string, shed sim.ShedPolicy, reqs []workload.Request) string {
	t.Helper()
	horizon := 0.0
	for _, r := range reqs {
		if r.Arrival > horizon {
			horizon = r.Arrival
		}
	}
	schedule := goldenSchedule(t, faultKind, 2*horizon)
	n := goldenNode(t, cfg, progs, pol, faultKind, schedule, shed)
	n.Trace = &sim.Trace{}
	n.Obs = obs.New()
	n.Attrib = obs.NewLedger(0)
	n.Occ = obs.NewOccupancy(0)
	if ob, ok := n.Policy.(obs.Observable); ok {
		ob.SetObserver(n.Obs)
	}
	if oa, ok := n.Policy.(obs.OccupancyAware); ok {
		oa.SetOccupancy(n.Occ)
	}
	out, err := n.Run(reqs)
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
	} else {
		for i := range out.Finishes {
			hexf(h, out.Finishes[i])
			hexf(h, out.Latency[i])
		}
		for _, v := range []float64{out.EnergyJ, out.Makespan, out.BusyTime, out.Fairness} {
			hexf(h, v)
		}
		fmt.Fprintf(h, "\n%d %d %v %d %d %d %d %d\n", out.Preemptions, out.Refissions, out.MeetsSLA,
			out.Killed, out.Retries, out.Shed, out.Rejected, out.FaultEvents)
		for _, e := range n.Trace.Events {
			hexf(h, e.Time)
			fmt.Fprintf(h, "%+v\n", e)
		}
		snap, err := n.Obs.Metrics.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(snap)
		h.Write(n.Obs.Trace.JSON())
		b := obs.NewAttribBuilder()
		for i, r := range reqs {
			for _, s := range n.Attrib.Spans(i, nil) {
				hexf(h, s.From)
				hexf(h, s.To)
				fmt.Fprintf(h, "%d ", s.Phase)
			}
			fmt.Fprintf(h, "%d\n", n.Attrib.Cause(i))
			var dur [obs.NumPhases]float64
			n.Attrib.Durations(i, &dur)
			violated := out.Finishes[i] < 0 || simtime.After(out.Finishes[i], r.Deadline)
			b.Add(r.Model, r.Level, &dur, n.Attrib.Cause(i), violated)
		}
		rep, err := b.Report([]*obs.Occupancy{n.Occ}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(rep)
		fmt.Fprintf(h, "%+v\n", *n.Occ)
	}
	ok, verr := goldenNode(t, cfg, progs, pol, faultKind, schedule, shed).MeetsSLA(reqs)
	if err == nil && verr == nil && ok != out.MeetsSLA {
		t.Errorf("MeetsSLA = %v, Run reports %v", ok, out.MeetsSLA)
	}
	fmt.Fprintf(h, "verdict %v %v\n", ok, verr != nil)
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGolden: every case's artifacts hash to the recorded digest.
func TestEngineGolden(t *testing.T) {
	cfg := arch.Planaria()
	progs := goldenModels(t, cfg)
	iso := cfg.Seconds(progs["toy-a"].Table(cfg.NumSubarrays()).TotalCycles)
	for pi, p := range goldenPolicies {
		for fi, fk := range goldenFaults {
			for si, sk := range goldenStreams {
				shed := goldenShed[(fi+si)%len(goldenShed)]
				name := fmt.Sprintf("%s/%s/%s/%s", p.name, fk, sk, shed)
				got := goldenDigest(t, cfg, progs, pi, fk, shed, goldenStream(sk, iso))
				if want := goldenDigests[name]; got != want {
					t.Errorf("%q: %q, digest recorded %q", name, got, want)
				}
			}
		}
	}
}

// goldenDigests were recorded with the engine before its handler split.
var goldenDigests = map[string]string{
	"spatial/none/sorted/none":               "aed766119652fa6deebb98d2b865252ffb606d0605102698e901b735bce11db4",
	"spatial/none/unsorted/doomed":           "44a405d942835327c3fdb654be232b70fbb0f57a0658af459485336870c61406",
	"spatial/none/ids/priority":              "c2f3d29d6efdec75e42a8d3c25b681d194be642e3bd2703a69bbe06d62dcb4a5",
	"spatial/none/unsorted-ids/none":         "da44caa46df45d42eee30828c5a8a1865b9b494b1d37c30cffe46098d5a2b136",
	"spatial/fission/sorted/doomed":          "610a74c4569d93f51867d5a40b95e9944dee7c43e6fe8b294cc3bff1e2b97680",
	"spatial/fission/unsorted/priority":      "c4d3ea439ac523e1968bdb263627f11723b6c5ab0301b1c2fd40f2d03be81b66",
	"spatial/fission/ids/none":               "c8a4aca46699b4c5a311e3033ce4c5d8907c431d43b93cad1e8be262991ec55b",
	"spatial/fission/unsorted-ids/doomed":    "0f07a16f58dbd77a77ca5dc89b399f1d648c681032444b265b175b59c72bff47",
	"spatial/derate/sorted/priority":         "fdf68f8b5b1aba8ad1a78813e103a53267b27a952f664ffdd29fa9a370548864",
	"spatial/derate/unsorted/none":           "8042139484ac1c1517e6fd058e9617bee88d00eff44fa916e5b368b26a9e96fe",
	"spatial/derate/ids/doomed":              "10b3ab2c8afca709e81823d68dea9313d815cccfdddff0cd7172da90a2f4a41f",
	"spatial/derate/unsorted-ids/priority":   "57f2592017b9fc518f967c67a703a6df12f3d5b7647e9ed7cb3b318094b59a9e",
	"spatial/dead/sorted/none":               "fea7bb5a2d94b0ad0fa67fa80aa96b5fbac8379b2e80d6a4f0cdb4855497c532",
	"spatial/dead/unsorted/doomed":           "2a4faa3dff7820882b36f8a45f5c086f0d597718c2f93fdfeb59868d674a7e0c",
	"spatial/dead/ids/priority":              "60484e306304745ff334650f5dd75f442f6194139d16cd38ca06a9a800c0b47d",
	"spatial/dead/unsorted-ids/none":         "057332dce6dc544c4d99df24b63cc3f0698fa3f69a1df3f3f0183fe6f6c0b021",
	"prema/none/sorted/none":                 "c417bc1f16eb76cdf9d9235d87f43e1012bee95eb68e134fed2022182a3667b5",
	"prema/none/unsorted/doomed":             "b50cc437648bea26b7190e65e5750e33441781f0893808ad07f8f2ea80513522",
	"prema/none/ids/priority":                "fc1ba3c47eb688095731925b48713cc249f9d6069f3e0983bf3c195d12a1179b",
	"prema/none/unsorted-ids/none":           "15f3c990804ac08102f95106b4b44d229286aeee0e8f058c7bae12ce2db6f130",
	"prema/fission/sorted/doomed":            "3b04ebda95f8946f6ccbc3d27998257d065d312420e42cb8fd6e889ed2e6c36e",
	"prema/fission/unsorted/priority":        "45ce0bde42c17346fd01d5497fa01f287ee12638f8b20514cb4c506a3493838f",
	"prema/fission/ids/none":                 "0c84091d4431bae5a77dc8c5f609e797f55912d8fb5820663c6acb01fca77248",
	"prema/fission/unsorted-ids/doomed":      "82eb2837e3c352007bf6d6095e2380decf4ab9dda8e5ffb59753696d9f79fd14",
	"prema/derate/sorted/priority":           "1bcf033ec56ce2627a0a09bfc8ba3b1f294544b005b3659e54034c22fffa7f3a",
	"prema/derate/unsorted/none":             "592b8dadbfb46dd6ff06585574e4cbde0e66ff06808e62d35ddf972a9ca94ba4",
	"prema/derate/ids/doomed":                "7f668b2548ede530d6fb29bf667717f343ac0c590fac76e99e25bf2bc146b404",
	"prema/derate/unsorted-ids/priority":     "768415bc593e8398c31fa8042e680d88a6f6aaf830a4e5753eaebd633d87f0d6",
	"prema/dead/sorted/none":                 "06be1c027a75ab1167aa12ce4e314a0bde6168466272c00708b9522268e327e9",
	"prema/dead/unsorted/doomed":             "ce91937fe9bf0883412ddaf156dd4cae706bb3fc3cfd426a02ae92d633227c53",
	"prema/dead/ids/priority":                "1e05f77c3b652b83142b4a22ebae2cee29196df4fc5e6c143b0b72b9ad1c1112",
	"prema/dead/unsorted-ids/none":           "155ea12cb6ecadf7dede38861128bb81099ba247362a97952cd6f22e551e5b7c",
	"elastic/none/sorted/none":               "2d83233626b2140ad2e6a6ab6cb9f373390e234376e1923c1716239634af2021",
	"elastic/none/unsorted/doomed":           "381612e848abc0a0ed678db75c777a35363663a71f1f680b7e5a3314053d62d7",
	"elastic/none/ids/priority":              "c6486c09a1315c7cf4bdd1b5b14c29ae6c3531bfcb76c35713dda5a10625f832",
	"elastic/none/unsorted-ids/none":         "42905886242165359dd27c577723ab113b4bcfbb1286f9cc7200a0d1dd5546d0",
	"elastic/fission/sorted/doomed":          "8b8399fcb13a1ef5aafa70641ed6d268bbd212927609a7c82800adb0fede685b",
	"elastic/fission/unsorted/priority":      "0861011103b0e5c39eee764a39162f3baa92b525f205f4e2dd226d2085153558",
	"elastic/fission/ids/none":               "6442bbac6445f16e7f04cfd7b1c471b4fe21c4fd0542bd75e6ff36f0c56cd640",
	"elastic/fission/unsorted-ids/doomed":    "5971b113b1f7a5cec90bfc2d95b7e41b7eaa8de61eaba52f18680dac0473b048",
	"elastic/derate/sorted/priority":         "cafb649e0838ac3094a68389bbcaf7c1464fa33ea740f35709486a6792759b34",
	"elastic/derate/unsorted/none":           "e690c5c79258635072e2590b73877f6c456ca9ee7afc2f47bcae57d141cffbf0",
	"elastic/derate/ids/doomed":              "40a3d17de26571dbf24310e31f8350d6e292fb53b76fda340724f2d5bc60b6f2",
	"elastic/derate/unsorted-ids/priority":   "42e3fd175d9a237a3660ae0957ed369afab9797dfeae433a05fafe5dc1b8d8fb",
	"elastic/dead/sorted/none":               "969191bdb3ffb9f343cb14d11e1ea7e0a82ce3f83b0a643d924840af0d38ba97",
	"elastic/dead/unsorted/doomed":           "95c29b1f55358ea62bc9ca2cb28e99aada9b42233827889739e53b262649e8d8",
	"elastic/dead/ids/priority":              "437eb084b4bf3611ad2f26960ebc702de9df88d7ebc8e307bbb0af2f76485bf4",
	"elastic/dead/unsorted-ids/none":         "daebb3e50dcb2f038ff6078c3a2c97f7ee2c5f0abd2eba8a2a8c12d1ead3471c",
	"fcfs/none/sorted/none":                  "e42e62c212012f07858ef8fbb2949116732f35504a419d4621aebb3de05fc12f",
	"fcfs/none/unsorted/doomed":              "2b1d6ba7a6521a80f0d97a94f2a98aac538b596cc0439237b0c61279ee96b264",
	"fcfs/none/ids/priority":                 "afbd363107fdfb7d8817db8caa7e7329e1065cdde2aaaa9c4ca87dd8736e5678",
	"fcfs/none/unsorted-ids/none":            "7e40a533cf12392c7569fc2e5616db3db0dfb6a7039e7eda5582195a81365c2c",
	"fcfs/fission/sorted/doomed":             "0987856d2735327f8572463ddeee00032e1cdbe15818b215a1ea76ac53080484",
	"fcfs/fission/unsorted/priority":         "e29e0e4621ce532a130dcfb4ab5f735d656208a2085d4ae10cb2f33cbc2510ae",
	"fcfs/fission/ids/none":                  "6bf0d65c6d1b272ea1d4e793dae23c1dd7f009fa51b695c568502622358493f9",
	"fcfs/fission/unsorted-ids/doomed":       "75dda501f04d51f9e63c25b12652e2a7044fc48cc3cb6dab1650b707864c97f9",
	"fcfs/derate/sorted/priority":            "42bc549f4f56f24517e18c196d9d217d19e019640cfa3dd5e90639ab2232120b",
	"fcfs/derate/unsorted/none":              "239b8bbdf404a16e6d44ce26b4937dd2591e92f2e233ca612e91507437ede69c",
	"fcfs/derate/ids/doomed":                 "95358c1c32a88064021b329ce62270dc5249307c634052343159e2caa7908a3a",
	"fcfs/derate/unsorted-ids/priority":      "a3213c64b2a59490130302a4365dc2e93d9e1934c594263b7c50377dcf7458ef",
	"fcfs/dead/sorted/none":                  "92b3354b6400407816fb4041b0e6c3b118985e29d790e05dc1c3fe8a33d58e56",
	"fcfs/dead/unsorted/doomed":              "d4afd59469a21ee9c6e70008a053b55c49ecdd7ad320edf0feca23dc78924b2f",
	"fcfs/dead/ids/priority":                 "0192ce8d3210431d7d64e293607197ff6d6f0842719d01f356c2b305bf2c68a4",
	"fcfs/dead/unsorted-ids/none":            "432837d99dbfd43e4f5116c6dad8488183d99f6fa4e63e67c5018333df03b0a0",
	"equal/none/sorted/none":                 "e0d281067e4192e6af4cd9cc7847a2df6971b0d12aa6eeb73a0de8ea4704aa66",
	"equal/none/unsorted/doomed":             "9411a043e79ccd8138f725d6ba48e895eaabaacda1e8007caccafad614efcc05",
	"equal/none/ids/priority":                "c1f55ae1470313c472537fb671fbb918d000beaef0871e81871b29c5cfeaca0d",
	"equal/none/unsorted-ids/none":           "ab5e9cf3e08075fc3d817d982c76ff579426d122c62979c37dc37f1c990787b7",
	"equal/fission/sorted/doomed":            "97ce310eb9f8682881d015901dd65b89e457705be2e0f8a9c51110ce9a5fb7d2",
	"equal/fission/unsorted/priority":        "4031f6c8cdfa63d645d12d370f18578d2d1442886174ab154d050396fa26f210",
	"equal/fission/ids/none":                 "63d7023bc00b0050617f51a0d197cfba8f6df77edf4743edb216f147fb36a7c8",
	"equal/fission/unsorted-ids/doomed":      "77b91cc98ea28bb6886760069319dec243c585108ed7bda6536b64e621068443",
	"equal/derate/sorted/priority":           "6187c9b0eca20b12b9e70cebd50a29153fbc441e695373781d0790b607cfbe96",
	"equal/derate/unsorted/none":             "a48660bd62d029596e74a3757c256f7c27e9d12c29fa8b48c8c37dd23ab10539",
	"equal/derate/ids/doomed":                "a26d55f62a18c2965d2ffff35d1a565461dc287d73590fc263ee58cb52ec5656",
	"equal/derate/unsorted-ids/priority":     "a81ca263fd027f03c5c9dc3e7607dcf462b762f70d476d9a6d0b8cd4cc0c2263",
	"equal/dead/sorted/none":                 "82f7bbfecc7586e3e931322423928a6fcb05440ba6b95cbbdc76fc81fcb7dd38",
	"equal/dead/unsorted/doomed":             "3676cca063b4faaad51f09d4c31c0c7b7c0698644bcc9d66a4e89caa0c3978ae",
	"equal/dead/ids/priority":                "01cb20abd849d1774274a675bf2e839b7ab0280427e7a2be625e2b44979bac7e",
	"equal/dead/unsorted-ids/none":           "1784330010cce0985f255d2ba09be2d072361baa76b82292cd67a344376a12a5",
	"alloconly/none/sorted/none":             "258b437d5bce642216b4f9d2b7516261b862620a082efeb858a3db0991185475",
	"alloconly/none/unsorted/doomed":         "8a60690c55eac2aef9e2ef4a5b7fef4c1a46d43873832d27417485d325557968",
	"alloconly/none/ids/priority":            "85d21153f7ef41e76172924d7032d9448143c954281bca2b064537cde6cac47a",
	"alloconly/none/unsorted-ids/none":       "227f6083e6cd666f37e523b708b92c868e33d360d89622cebcfe89fed11147b8",
	"alloconly/fission/sorted/doomed":        "dc18072609c22d768e19810978b7104e8768b9e141c5d0d78c029eec0991320d",
	"alloconly/fission/unsorted/priority":    "28ec559a3757f60801a9669bea0a6321b0d6a0e895fd061e84dce82930b258d2",
	"alloconly/fission/ids/none":             "b7a839b3e1cd736a6ed75aa9dc6f0a77b7c504b3859f0c1a93b6d073dad42c02",
	"alloconly/fission/unsorted-ids/doomed":  "f336efa4bb9993a52b8ceec037d80a86669e847764bcf35b0c3776b9f3852e9a",
	"alloconly/derate/sorted/priority":       "9ad36a4da271b4bd91f0d4afac05e92e061407764f8937e149b38e2d34a88a65",
	"alloconly/derate/unsorted/none":         "7427c8cee807ad3d7304525108d891e7921166036e1c9e87896db7846ee8196f",
	"alloconly/derate/ids/doomed":            "332b97899f01276fc50dee53c6ead0ac059f70631a59d449569f90574eab9f4e",
	"alloconly/derate/unsorted-ids/priority": "0eb6d45a476b138f3147a56bd83c0bf0feb210bfeced9364cde08069b51d9192",
	"alloconly/dead/sorted/none":             "0dead25e1c7a179cc39d55271504c8583958083f9e03300bea0786f4b8c199c1",
	"alloconly/dead/unsorted/doomed":         "d114e04d77fa1302e77419fe75f8c8376d6b540a5690f4ddd0f0901f8682a2ff",
	"alloconly/dead/ids/priority":            "4872ad3e4d6282c04317b1067ea6a4f33e5e64f9af508830bdbef6bcae10fc8a",
	"alloconly/dead/unsorted-ids/none":       "e46624482e82054944696335b68a2e1d5208eb1c2185aaf24cc8de38387bb819",
}
