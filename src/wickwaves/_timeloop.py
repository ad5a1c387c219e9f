"""The fixed-step time loop shared by the NLW and NLS flows.

A step maps (state, carry, dt) to (state, carry); the carry is what one
step hands the next (NLW: the force at the current position, which makes
the closing kick's force the next opening one, first-same-as-last; NLS:
None).  The loop owns the time grid: full steps of exactly dt, one
shortened last step onto t_final, and a step boundary at each record time
between grid points.  Record times on the grid leave the steps unchanged.

The members of a batched state (axis 0) never interact, so with
`grouped` the loop runs on groups of members at once (`torus.map_groups`),
each group with its own carry from its first state, and joins the groups'
final states and records; the results equal those of one loop over the
whole batch.  The NLS flow asks for it; an NLW step is too light per
member for its timing to stay steady on two threads (see CHANGES.md).
"""

from __future__ import annotations

import math

from .torus import map_groups


def _schedule(dt, t_final, record_times):
    """The record times due at t=0, and [end, size, record times due] per
    step."""
    if not (0 <= t_final < math.inf):
        raise ValueError("t_final must be finite and >= 0")
    tol = 1e-12 * max(1.0, t_final)
    want = sorted(record_times)
    if want and (want[0] < -tol or want[-1] > t_final + tol):
        raise ValueError("record times must lie in [0, t_final]")
    n_full = int(math.floor(t_final / dt + 1e-12))
    steps = [[(k + 1) * dt, dt, []] for k in range(n_full)]
    if t_final - n_full * dt > tol:
        steps.append([t_final, t_final - n_full * dt, []])
    at_start = [t for t in want if t <= tol or not steps]
    for t in want[len(at_start):]:
        j = next((i for i, s in enumerate(steps) if s[0] >= t - tol),
                 len(steps) - 1)
        end, _, due = steps[j]
        if end - t > tol:               # off the grid: split the step at t
            start = steps[j - 1][0] if j else 0.0
            steps[j:j + 1] = [[t, t - start, [t]], [end, end - t, due]]
        else:
            due.append(t)
    return at_start, steps


def run(step, state, dt, t_final, record_times=None, start=None,
        grouped=False):
    """Integrate to t_final; returns the final state, or (final state,
    [(t, state)] sorted by t) when record times are given.  `start(state)`
    gives the first step's carry (default None); it is called inside the
    loop, on each group, so that no caller holds the first carry once the
    first step has replaced it.  A grouped batched state needs
    `take(index)` and `join(states)` along its member axis."""
    at_start, steps = _schedule(
        dt, t_final, () if record_times is None else record_times)

    def loop(st):
        carry = None if start is None else start(st)
        rec = [(t, st.copy()) for t in at_start]
        for _, size, due in steps:
            st, carry = step(st, carry, size)
            rec.extend((t, st.copy()) for t in due)
        return st, rec

    if not grouped or state.u.ndim < 3:     # no batch axis to group
        final, rec = loop(state)
    else:
        parts = map_groups(lambda sl: loop(state.take(sl)), len(state.u))
        final = state.join([st for st, _ in parts])
        rec = [(t, state.join([r[i][1] for _, r in parts]))
               for i, (t, _) in enumerate(parts[0][1])]
    if record_times is None:
        return final
    return final, rec
