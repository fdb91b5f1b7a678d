"""Replay of the two-geodesic existence proof as checkable traces.

Assuming a single prime closed geodesic on the bumpy Finsler n-sphere, each
normal-form case and parity subcase is driven to an explicit contradiction.
Every certificate is re-validated, from its JSON bytes, by an exact checker.
The certificate holds values only: each trace below prints its verdict and,
for a contradiction, the closing step's rule, contradiction kind and values,
all read from the verified certificate.  A vacuous trace's case shape is one
that no block census of dimension 2(n-1) reaches.
"""

import json

from indexlab import verify_certificate
from indexlab.prover import certificate_json

for n in (2, 3, 4, 7):
    cert = json.loads(certificate_json(n))
    verify_certificate(cert)  # raises on any numeric discrepancy
    print(f"\nn = {n}")
    for trace in cert["traces"]:
        tag = f"{trace['case']:5s} {trace['subcase'] or '(all p)':8s}"
        if trace["verdict"] == "vacuous":
            print(f"  {tag} vacuous")
        else:
            closing = trace["steps"][-1]
            values = {k: v for k, v in closing["values"].items() if k != "contradiction_kind"}
            print(f"  {tag} contradiction: {closing['rule']} ({trace['detail']}) {values}")

# the full case analysis serializes to a deterministic JSON certificate
text = certificate_json(4)
cert = json.loads(text)
steps = sum(len(t["steps"]) for t in cert["traces"])
print(f"\ncertificate for n = 4: {len(cert['traces'])} traces, {steps} facts, "
      f"{len(text)} bytes of canonical JSON")
