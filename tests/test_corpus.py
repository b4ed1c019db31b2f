import hashlib
import json
import random

from ccseed import corpus
from ccseed.syntax import PrefixedTerm, render


def _slot(path):
    return [path.rep_index, list(path.steps)]


def test_corpus_draws_match_recorded_digest():
    # Recorded before slots were drawn off one walk and terms interned in
    # plain dicts: the random terms, contexts and fattenings of seeded
    # generators, base and sync, with every slot of each term in order and
    # what inserting a term there gives.  A change to the draws or to the
    # slot order moves the digest.
    digests = {}
    for mode, count in (("base", 3), ("sync", 4)):
        acts = corpus.default_actions(count, mode)
        rng = random.Random(3141 if mode == "base" else 2718)
        digest = hashlib.sha256()
        for k in range(150):
            fp = corpus.random_finite(rng, rng.randint(0, 6), acts)
            p = corpus.random_process(rng, rng.randint(0, 9), acts,
                                      replication=k % 6 != 5)
            t = PrefixedTerm(rng.choice(acts),
                             corpus.random_finite(rng, rng.randint(0, 2),
                                                  acts))
            rows = [render(fp), render(p), render(t)]
            rows.append([[_slot(slot), render(corpus.insert_at(p, slot, (t,)))]
                         for slot in corpus.multiset_slots(p)])
            rows.append([render(corpus.make_redundant(rng, p, ops))
                         for ops in (1, 2, 3)])
            ctx = corpus.random_context(rng, rng.randint(0, 7), acts,
                                        finite_only=k % 4 == 0)
            rows.append([render(ctx.base), _slot(ctx.slot),
                         render(ctx.plug((t,)))])
            digest.update(json.dumps(rows).encode() + b"\n")
        digests[mode] = digest.hexdigest()
    assert digests == {
        "base": "1c9cfdfd5b20ebdd16e984cd86971dd167a80e9dd2b5b56a105f17600c128e31",
        "sync": "23668d436e50724aa6efdffd89f959a66f9b2dfc5b298d03cd7f07d5f920d70c",
    }
