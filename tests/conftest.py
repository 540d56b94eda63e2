import os
import sys

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # one profile for every property test: reproducible, no example database,
    # no per-example deadline (first calls pay numpy's warm-up)
    settings.register_profile("collide1d", max_examples=40, deadline=None,
                              derandomize=True, database=None)
    settings.load_profile("collide1d")
