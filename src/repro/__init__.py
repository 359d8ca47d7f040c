"""sgx-perf reproduction.

A production-quality reproduction of *sgx-perf: A Performance Analysis Tool
for Intel SGX Enclaves* (Weichbrodt, Aublin, Kapitza — Middleware 2018) on
top of a deterministic, virtual-time SGX simulation substrate.

Packages:

* :mod:`repro.sim` — virtual clock, deterministic scheduler, loader, OS.
* :mod:`repro.sgx` — SGX hardware model (EPC, transitions, AEX, paging).
* :mod:`repro.sdk` — Intel SGX SDK analogue (EDL, URTS, TRTS, sync).
* :mod:`repro.perf` — the paper's contribution: logger, working set
  estimator, analyser.
* :mod:`repro.crypto` — stdlib-backed SHA-256/HMAC, a stream cipher and
  their virtual-time cost model, used by the workloads.
* :mod:`repro.workloads` — the four evaluated applications.
* :mod:`repro.bench` — experiment harness regenerating every table/figure.
"""

__version__ = "1.0.0"
