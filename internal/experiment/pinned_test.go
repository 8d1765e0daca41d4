package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/idr"
	"repro/internal/topology"
)

// pinnedStep is one command of a pinned migration/fault script,
// followed by a WaitConverged.
type pinnedStep struct {
	name string
	do   func(e *Experiment) error
}

// pinnedScript exercises every rewiring and fault path on a 5-clique
// whose ASes 4 and 5 start as cluster members, so each path meets
// router-router, switch-router and switch-switch links.
func pinnedScript() []pinnedStep {
	links := func(op func(a, b idr.ASN) error, pairs ...[2]idr.ASN) func(e *Experiment) error {
		return func(e *Experiment) error {
			for _, p := range pairs {
				if err := op(p[0], p[1]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return []pinnedStep{
		{"warmup", func(e *Experiment) error {
			for _, asn := range e.ASNs() {
				if err := e.Announce(asn); err != nil {
					return err
				}
			}
			return nil
		}},
		{"migrate-in 3", func(e *Experiment) error { return e.MigrateIn(3) }},
		{"migrate-out 3", func(e *Experiment) error { return e.MigrateOut(3) }},
		{"migrate-out 5", func(e *Experiment) error { return e.MigrateOut(5) }},
		{"migrate-in 5", func(e *Experiment) error { return e.MigrateIn(5) }},
		{"fail 1-2 1-4; migrate-in 1", func(e *Experiment) error {
			if err := links(e.FailLink, [2]idr.ASN{1, 2}, [2]idr.ASN{1, 4})(e); err != nil {
				return err
			}
			return e.MigrateIn(1)
		}},
		{"restore 1-2 1-4", func(e *Experiment) error {
			return links(e.RestoreLink, [2]idr.ASN{1, 2}, [2]idr.ASN{1, 4})(e)
		}},
		{"fail 1-3 1-5; migrate-out 1", func(e *Experiment) error {
			if err := links(e.FailLink, [2]idr.ASN{1, 3}, [2]idr.ASN{1, 5})(e); err != nil {
				return err
			}
			return e.MigrateOut(1)
		}},
		{"restore 1-3 1-5", func(e *Experiment) error {
			return links(e.RestoreLink, [2]idr.ASN{1, 3}, [2]idr.ASN{1, 5})(e)
		}},
		{"reset 2-3 (router-router)", func(e *Experiment) error { return e.SessionReset(2, 3) }},
		{"reset 4-2 (switch-router)", func(e *Experiment) error { return e.SessionReset(4, 2) }},
		{"reset 4-5 (switch-switch)", func(e *Experiment) error { return e.SessionReset(4, 5) }},
		{"controller down", func(e *Experiment) error { return e.ControllerDown() }},
		{"controller up", func(e *Experiment) error { return e.ControllerUp() }},
		{"partition", func(e *Experiment) error { return e.Partition() }},
		{"heal", func(e *Experiment) error { return e.Heal() }},
	}
}

// runPinnedScript runs the script once and returns one line per step
// with the kernel, BGP and controller counters after it converged.
func runPinnedScript(t *testing.T, debounce time.Duration) []string {
	t.Helper()
	timers := fastTimers()
	timers.MRAIJitter = true
	e := build(t, Config{
		Seed: 11, Graph: mustGraph(topology.Clique(5)), Timers: timers,
		SDNMembers: []idr.ASN{4, 5}, Debounce: debounce,
	})
	var lines []string
	for _, step := range pinnedScript() {
		if err := step.do(e); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		conv, err := e.WaitConverged(30 * time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sent, recv := e.UpdateTotals()
		lines = append(lines, fmt.Sprintf("%s: events=%d elapsed=%v conv=%v sent=%d recv=%d ctrl=%+v",
			step.name, e.K.Events(), e.K.Elapsed(), conv, sent, recv, e.Ctrl.Stats()))
	}
	return lines
}

// TestMigrationAndFaultsPinned pins the exact event counts, virtual
// times and protocol counters of migration and fault scripts with MRAI
// jitter on, under the default debounce and under synchronous
// recompute (where the order of controller calls is visible). Any
// reordering of link wiring, session resets or controller calls moves
// at least one of these numbers.
func TestMigrationAndFaultsPinned(t *testing.T) {
	cases := []struct {
		name     string
		debounce time.Duration
		want     []string
	}{
		{"default-debounce", 0, []string{
			"warmup: events=246 elapsed=7.637052203s conv=2.537052203s sent=48 recv=48 ctrl={Recomputes:2 FlowModsSent:20 RouteEvents:24 AnnounceCommands:48 WithdrawCommands:12}",
			"migrate-in 3: events=362 elapsed=15.178963889s conv=2.541911686s sent=72 recv=60 ctrl={Recomputes:4 FlowModsSent:38 RouteEvents:50 AnnounceCommands:78 WithdrawCommands:18}",
			"migrate-out 3: events=512 elapsed=22.692472072s conv=2.513508183s sent=118 recv=92 ctrl={Recomputes:6 FlowModsSent:54 RouteEvents:78 AnnounceCommands:118 WithdrawCommands:26}",
			"migrate-out 5: events=663 elapsed=30.265008139s conv=2.572536067s sent=172 recv=138 ctrl={Recomputes:8 FlowModsSent:61 RouteEvents:101 AnnounceCommands:141 WithdrawCommands:31}",
			"migrate-in 5: events=813 elapsed=37.865880055s conv=2.600871916s sent=208 recv=162 ctrl={Recomputes:10 FlowModsSent:73 RouteEvents:126 AnnounceCommands:171 WithdrawCommands:37}",
			"fail 1-2 1-4; migrate-in 1: events=929 elapsed=47.113262962s conv=4.247382907s sent=227 recv=170 ctrl={Recomputes:13 FlowModsSent:94 RouteEvents:149 AnnounceCommands:200 WithdrawCommands:43}",
			"restore 1-2 1-4: events=1000 elapsed=54.118262962s conv=2.005s sent=236 recv=179 ctrl={Recomputes:15 FlowModsSent:112 RouteEvents:156 AnnounceCommands:230 WithdrawCommands:49}",
			"fail 1-3 1-5; migrate-out 1: events=1131 elapsed=1m3.458105629s conv=4.339842667s sent=263 recv=200 ctrl={Recomputes:18 FlowModsSent:128 RouteEvents:177 AnnounceCommands:261 WithdrawCommands:58}",
			"restore 1-3 1-5: events=1221 elapsed=1m11.005819179s conv=2.54771355s sent=289 recv=222 ctrl={Recomputes:20 FlowModsSent:140 RouteEvents:186 AnnounceCommands:291 WithdrawCommands:64}",
			"reset 2-3 (router-router): events=1289 elapsed=1m18.736040454s conv=2.730221275s sent=313 recv=238 ctrl={Recomputes:22 FlowModsSent:148 RouteEvents:194 AnnounceCommands:307 WithdrawCommands:72}",
			"reset 4-2 (switch-router): events=1359 elapsed=1m26.415088873s conv=2.679048419s sent=325 recv=246 ctrl={Recomputes:24 FlowModsSent:160 RouteEvents:205 AnnounceCommands:337 WithdrawCommands:78}",
			"reset 4-5 (switch-switch): events=1386 elapsed=1m32.416088873s conv=1.001s sent=325 recv=246 ctrl={Recomputes:25 FlowModsSent:170 RouteEvents:205 AnnounceCommands:361 WithdrawCommands:84}",
			"controller down: events=1563 elapsed=1m40.309729262s conv=2.893640389s sent=419 recv=339 ctrl={Recomputes:26 FlowModsSent:170 RouteEvents:229 AnnounceCommands:361 WithdrawCommands:84}",
			"controller up: events=1809 elapsed=1m47.969959133s conv=2.660229871s sent=476 recv=384 ctrl={Recomputes:28 FlowModsSent:184 RouteEvents:261 AnnounceCommands:397 WithdrawCommands:90}",
			"partition: events=1863 elapsed=1m55.64119742s conv=2.671238287s sent=482 recv=390 ctrl={Recomputes:30 FlowModsSent:198 RouteEvents:283 AnnounceCommands:401 WithdrawCommands:100}",
			"heal: events=2081 elapsed=2m3.149211137s conv=2.508013717s sent=540 recv=436 ctrl={Recomputes:32 FlowModsSent:212 RouteEvents:311 AnnounceCommands:437 WithdrawCommands:106}",
		}},
		{"sync-recompute", -1, []string{
			"warmup: events=288 elapsed=7.061403535s conv=1.961403535s sent=48 recv=54 ctrl={Recomputes:26 FlowModsSent:52 RouteEvents:24 AnnounceCommands:120 WithdrawCommands:36}",
			"migrate-in 3: events=549 elapsed=13.85866861s conv=1.797265075s sent=72 recv=78 ctrl={Recomputes:57 FlowModsSent:193 RouteEvents:50 AnnounceCommands:308 WithdrawCommands:88}",
			"migrate-out 3: events=834 elapsed=20.786600339s conv=1.927931729s sent=116 recv=126 ctrl={Recomputes:91 FlowModsSent:310 RouteEvents:78 AnnounceCommands:493 WithdrawCommands:172}",
			"migrate-out 5: events=1050 elapsed=27.773019732s conv=1.986419393s sent=168 recv=187 ctrl={Recomputes:118 FlowModsSent:362 RouteEvents:101 AnnounceCommands:592 WithdrawCommands:218}",
			"migrate-in 5: events=1330 elapsed=34.743223501s conv=1.970203769s sent=204 recv=229 ctrl={Recomputes:148 FlowModsSent:454 RouteEvents:126 AnnounceCommands:768 WithdrawCommands:264}",
			"fail 1-2 1-4; migrate-in 1: events=1570 elapsed=43.073479579s conv=3.330256078s sent=221 recv=248 ctrl={Recomputes:175 FlowModsSent:595 RouteEvents:147 AnnounceCommands:932 WithdrawCommands:311}",
			"restore 1-2 1-4: events=1697 elapsed=49.759915705s conv=1.686436126s sent=230 recv=257 ctrl={Recomputes:185 FlowModsSent:661 RouteEvents:154 AnnounceCommands:1029 WithdrawCommands:336}",
			"fail 1-3 1-5; migrate-out 1: events=1921 elapsed=58.02550418s conv=3.265588475s sent=253 recv=288 ctrl={Recomputes:211 FlowModsSent:754 RouteEvents:175 AnnounceCommands:1151 WithdrawCommands:402}",
			"restore 1-3 1-5: events=2031 elapsed=1m4.768169806s conv=1.742665626s sent=279 recv=310 ctrl={Recomputes:221 FlowModsSent:782 RouteEvents:184 AnnounceCommands:1214 WithdrawCommands:423}",
			"reset 2-3 (router-router): events=2099 elapsed=1m11.729179493s conv=1.961009687s sent=303 recv=326 ctrl={Recomputes:229 FlowModsSent:798 RouteEvents:192 AnnounceCommands:1246 WithdrawCommands:439}",
			"reset 4-2 (switch-router): events=2191 elapsed=1m18.583472112s conv=1.854292619s sent=315 recv=338 ctrl={Recomputes:241 FlowModsSent:830 RouteEvents:203 AnnounceCommands:1318 WithdrawCommands:458}",
			"reset 4-5 (switch-switch): events=2273 elapsed=1m23.586472112s conv=3ms sent=315 recv=352 ctrl={Recomputes:245 FlowModsSent:870 RouteEvents:203 AnnounceCommands:1408 WithdrawCommands:488}",
			"controller down: events=2520 elapsed=1m31.409587012s conv=2.8231149s sent=409 recv=445 ctrl={Recomputes:273 FlowModsSent:919 RouteEvents:227 AnnounceCommands:1467 WithdrawCommands:528}",
			"controller up: events=2871 elapsed=1m38.401331449s conv=1.991744437s sent=466 recv=504 ctrl={Recomputes:314 FlowModsSent:1012 RouteEvents:259 AnnounceCommands:1656 WithdrawCommands:573}",
			"partition: events=2955 elapsed=1m45.028448614s conv=1.627117165s sent=472 recv=512 ctrl={Recomputes:336 FlowModsSent:1056 RouteEvents:281 AnnounceCommands:1688 WithdrawCommands:609}",
			"heal: events=3261 elapsed=1m52.015794676s conv=1.987346062s sent=530 recv=568 ctrl={Recomputes:368 FlowModsSent:1136 RouteEvents:309 AnnounceCommands:1856 WithdrawCommands:663}",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runPinnedScript(t, tc.debounce)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("pinned script diverged:\ngot:\n%s\nwant:\n%s",
					strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
