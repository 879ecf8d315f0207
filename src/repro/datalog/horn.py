"""Linear-time least model of propositional Horn programs.

"Propositional datalog (i.e., all rules are ground) can be evaluated in
linear time" (Section 2.4, citing Dowling & Gallier [7] and Minoux's
LTUR [27]).  This is the back half of the Theorem 4.4 pipeline: after
guard-driven grounding, the remaining ground program is solved here.

The algorithm is the classic forward chaining with per-rule counters of
unsatisfied body atoms: each rule is touched once per body atom, so the
total work is linear in the program size.

Propositional atoms arrive as dense integer ids from the solve's
shared :class:`~repro.datalog.interning.InternPool`: the
unit-resolution inner loop walks flat lists indexed by atom id, never
re-hashing an atom, and the derived set is a byte array that the caller
decodes lazily.

Two consumers sit on top:

* :func:`horn_least_model_ids` -- the batch form: the whole ground rule
  list exists up front (the eager / materializing pipeline);
* :class:`StreamingHorn` -- the online form: rules arrive one at a time
  from a push-based grounder
  (:func:`repro.datalog.grounding.ground_program_streamed`), satisfied
  rules fire immediately and are never stored, so peak live-rule
  residency is O(waiting frontier) rather than O(ground program).
"""

from __future__ import annotations

from typing import Iterable


def horn_least_model_ids(
    rules: Iterable[tuple[int, tuple[int, ...]]], atom_count: int
) -> bytearray:
    """The least model of ground Horn rules over pre-interned atom ids.

    The native back half of the interned Theorem 4.4 pipeline: callers
    (:func:`repro.datalog.grounding.ground_program_ids`) already hold
    atoms as dense ids from a shared
    :class:`~repro.datalog.interning.InternPool`, so nothing is hashed
    here at all -- rules are
    ``(head_id, body_ids)`` pairs, propagation walks flat lists, and
    the result is the 0/1 flag array ``derived`` indexed by atom id
    (``atom_count`` = pool size; decoding back to facts is the
    caller's -- lazy -- concern).
    """
    # Waiting lists used to be eagerly allocated for *every* pool atom
    # (``[[] for _ in range(atom_count)]``), which is pure waste when
    # only a fraction of the pool occurs in rule bodies (heads of rules
    # that never fire, demanded-but-underived atoms).  Micro-benchmark
    # on this machine: on the chain-120 solver ground program (61k
    # rules, 7.7k pool atoms, 98% of them body atoms) eager lists take
    # 24.4ms vs 29.4ms for a lazy dict -- dense direct indexing wins;
    # on a sparse synthetic pool (1M atoms, 10k rules) the eager form
    # takes 415ms (list allocation dominates) vs 5.7ms for the dict.
    # So: direct lists while the pool is small enough that allocating
    # it is cheap, lazy dict above that.
    dense = atom_count <= (1 << 16)
    derived = bytearray(atom_count)
    heads: list[int] = []  # rule index -> head atom id
    counters: list[int] = []  # rule index -> unsatisfied body atoms
    queue: list[int] = []

    if dense:
        waiting: list[list[int]] = [[] for _ in range(atom_count)]
        for index, (head_id, body) in enumerate(rules):
            heads.append(head_id)
            body_ids = set(body)
            counters.append(len(body_ids))
            for body_id in body_ids:
                waiting[body_id].append(index)
            if not body_ids and not derived[head_id]:
                derived[head_id] = 1
                queue.append(head_id)
        fetch = waiting.__getitem__
    else:
        lazy: dict[int, list[int]] = {}
        setdefault = lazy.setdefault
        for index, (head_id, body) in enumerate(rules):
            heads.append(head_id)
            body_ids = set(body)
            counters.append(len(body_ids))
            for body_id in body_ids:
                setdefault(body_id, []).append(index)
            if not body_ids and not derived[head_id]:
                derived[head_id] = 1
                queue.append(head_id)
        get = lazy.get

        def fetch(atom_id: int):
            found = get(atom_id)
            return found if found is not None else ()

    while queue:
        atom_id = queue.pop()
        for index in fetch(atom_id):
            counters[index] -= 1
            if counters[index] == 0:
                head_id = heads[index]
                if not derived[head_id]:
                    derived[head_id] = 1
                    queue.append(head_id)
    return derived


class StreamingHorn:
    """Online LTUR: the least model of a ground-rule *stream*.

    The push half of the streamed Theorem 4.4 pipeline
    (:func:`repro.datalog.grounding.ground_program_streamed` is the
    producer).  Rules arrive one at a time through :meth:`add_rule`:

    * a rule whose head is already derived is dropped on the spot
      (:attr:`rules_dropped`) -- its body ids are never even stored;
    * a rule whose body is already satisfied fires immediately and is
      never stored either;
    * only rules genuinely *waiting* on underived body atoms are kept,
      indexed by the atoms they wait on -- and evicted (counted into
      :attr:`rules_dropped`) as soon as their head derives through
      some other rule, since firing them could add nothing.
      :attr:`live_rules` / :attr:`peak_live_rules` track that
      residency -- the streamed pipeline's O(frontier) claim is
      measured here, against the eager pipeline's O(ground program)
      rule list.

    Newly derived atom ids accumulate in an internal buffer;
    :meth:`take_fresh` hands them to the producer, which instantiates
    the rules they newly support (the demand loop of the streamed
    grounder).

    ``meter`` (a :class:`repro.datalog.budget.BudgetMeter`, attached by
    the producer) makes the propagation loop budget-cooperative: the
    time/memory caps are checked every :data:`_METER_STRIDE` derived
    atoms, so a derivation cascade inside one grounding round cannot
    run away unchecked between the producer's per-round checkpoints.
    """

    #: counter sentinel for evicted rules: can never be decremented to 0
    _KILLED = 1 << 60

    #: budget checkpoint stride inside the propagation loop -- cheap
    #: enough to leave always-on, frequent enough that one round's
    #: derivation cascade stays bounded
    _METER_STRIDE = 2048

    __slots__ = (
        "_derived",
        "_fresh",
        "_waiting",
        "_heads",
        "_counters",
        "_parked_by_head",
        "derived_count",
        "rules_seen",
        "rules_dropped",
        "live_rules",
        "peak_live_rules",
        "meter",
    )

    def __init__(self, atom_capacity: int = 0):
        self._derived = bytearray(atom_capacity)
        self._fresh: list[int] = []
        self._waiting: dict[int, list[int]] = {}
        self._heads: list[int] = []
        self._counters: list[int] = []
        self._parked_by_head: dict[int, list[int]] = {}
        self.derived_count = 0
        self.rules_seen = 0
        self.rules_dropped = 0
        self.live_rules = 0
        self.peak_live_rules = 0
        #: optional BudgetMeter checked inside the propagation loop
        self.meter = None

    def is_derived(self, atom_id: int) -> bool:
        derived = self._derived
        return atom_id < len(derived) and bool(derived[atom_id])

    def _ensure(self, atom_id: int) -> None:
        derived = self._derived
        if atom_id >= len(derived):
            # amortized doubling so a growing pool costs O(n) total
            derived.extend(bytes(max(atom_id + 1 - len(derived), len(derived), 16)))

    def add_rule(self, head_id: int, body_ids: tuple[int, ...] = ()) -> None:
        """Feed one ground rule ``head <- body`` into the model."""
        self.rules_seen += 1
        self._ensure(max(body_ids) if body_ids else head_id)
        self._ensure(head_id)
        derived = self._derived
        if derived[head_id]:
            self.rules_dropped += 1
            return
        unsatisfied = {b for b in body_ids if not derived[b]}
        if not unsatisfied:
            self._derive(head_id)
            return
        index = len(self._heads)
        self._heads.append(head_id)
        self._counters.append(len(unsatisfied))
        setdefault = self._waiting.setdefault
        for body_id in unsatisfied:
            setdefault(body_id, []).append(index)
        self._parked_by_head.setdefault(head_id, []).append(index)
        self.live_rules += 1
        if self.live_rules > self.peak_live_rules:
            self.peak_live_rules = self.live_rules

    def _derive(self, atom_id: int) -> None:
        derived = self._derived
        fresh = self._fresh
        waiting = self._waiting
        counters = self._counters
        heads = self._heads
        killed = self._KILLED
        meter = self.meter
        stride = self._METER_STRIDE
        stack = [atom_id]
        while stack:
            current = stack.pop()
            if derived[current]:
                continue
            derived[current] = 1
            self.derived_count += 1
            if meter is not None and not self.derived_count % stride:
                meter.check()
            fresh.append(current)
            # parked rules with this head can no longer contribute:
            # evict them from the live frontier (their waiting-list
            # entries become inert via the sentinel counter)
            parked = self._parked_by_head.pop(current, None)
            if parked:
                for index in parked:
                    if counters[index] > 0:
                        counters[index] = killed
                        self.live_rules -= 1
                        self.rules_dropped += 1
            rules = waiting.pop(current, None)
            if rules is None:
                continue
            for index in rules:
                counters[index] -= 1
                if counters[index] == 0:
                    self.live_rules -= 1
                    head_id = heads[index]
                    if not derived[head_id]:
                        stack.append(head_id)

    def take_fresh(self) -> list[int]:
        """Atom ids derived since the last call (derivation order).

        Always the caller's to keep: the internal buffer is never
        aliased, so later derivations cannot retroactively appear in a
        previously returned list."""
        fresh = self._fresh
        if not fresh:
            return []
        self._fresh = []
        return fresh

    def flags(self, atom_count: int) -> bytearray:
        """The 0/1 derived array over ``atom_count`` atom ids -- the
        same shape :func:`horn_least_model_ids` returns.  Always a
        snapshot copy: feeding more rules into the sink afterwards
        never mutates a previously returned array."""
        derived = self._derived
        if len(derived) >= atom_count:
            return derived[:atom_count]
        return derived + bytearray(atom_count - len(derived))
