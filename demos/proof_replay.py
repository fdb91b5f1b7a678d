"""Replay of the two-geodesic existence proof as checkable traces.

Assuming a single prime closed geodesic on the bumpy Finsler n-sphere, each
normal-form case and parity subcase is driven to an explicit contradiction.
Every certificate is re-validated, from its JSON bytes, by an exact checker;
the certificate holds values only: `render` rebuilds each step's prose, and
`vacuity` the reason a case shape is unsatisfiable at n.
"""

import json

from indexlab import verify_certificate
from indexlab.prover import certificate_json, render, vacuity

for n in (2, 3, 4, 7):
    cert = json.loads(certificate_json(n))
    verify_certificate(cert)  # raises on any numeric discrepancy
    print(f"\nn = {n}")
    for trace in cert["traces"]:
        tag = f"{trace['case']:5s} {trace['subcase'] or '(all p)':8s}"
        if trace["verdict"] == "vacuous":
            print(f"  {tag} vacuous: {vacuity(n, trace['case'])}")
        else:
            print(f"  {tag} contradiction ({trace['detail']}):")
            _, statement = render(n, trace)[-1]
            print(f"      {statement}")

# the full case analysis serializes to a deterministic JSON certificate
text = certificate_json(4)
cert = json.loads(text)
steps = sum(len(t["steps"]) for t in cert["traces"])
print(f"\ncertificate for n = 4: {len(cert['traces'])} traces, {steps} facts, "
      f"{len(text)} bytes of canonical JSON")
