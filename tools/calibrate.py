"""Calibration sweep: per-workload metrics vs the paper's targets."""
import sys, time
from repro.api import Runner, private, nocstar, monolithic, distributed, ideal, nocstar_ideal
from repro.workloads import build_multithreaded, get_workload, WORKLOAD_NAMES

cores = int(sys.argv[1]) if len(sys.argv) > 1 else 16
acc = int(sys.argv[2]) if len(sys.argv) > 2 else 6000
sp = not (len(sys.argv) > 3 and sys.argv[3] == '4k')
names = sys.argv[4].split(',') if len(sys.argv) > 4 else WORKLOAD_NAMES

print(f"cores={cores} accesses={acc} superpages={sp}")
print(f"{'workload':15s} {'l1mr':>5s} {'pl2mr':>6s} {'elim%':>6s} {'mono':>6s} {'dist':>6s} {'nstar':>6s} {'nideal':>6s} {'ideal':>6s} {'walkcyc':>7s}")
t0 = time.time()
for name in names:
    wl = build_multithreaded(get_workload(name), cores, accesses_per_core=acc, seed=11, superpages=sp)
    cmp = Runner().run_prebuilt(wl, [private(cores), monolithic(cores), distributed(cores), nocstar(cores), nocstar_ideal(cores), ideal(cores)])
    p = cmp.results['private']
    s = cmp.speedups()
    # avg walk latency proxy from private walk levels
    wl_lv = p.walk_levels
    lat = {'pwc':1,'l1':4,'l2':12,'llc':50,'dram':200}
    tot = sum(wl_lv.values())
    wc = sum(lat[k]*v for k,v in wl_lv.items())/max(p.stats.walks,1)
    print(f"{name:15s} {p.stats.l1_miss_rate:5.3f} {p.stats.l2_miss_rate:6.3f} {cmp.misses_eliminated_pct('distributed'):6.1f} "
          f"{s['monolithic-mesh']:6.3f} {s['distributed']:6.3f} {s['nocstar']:6.3f} {s['nocstar-ideal']:6.3f} {s['ideal']:6.3f} {wc:7.1f}")
print(f"elapsed {time.time()-t0:.1f}s")
