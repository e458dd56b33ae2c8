"""Shared test settings.

Property tests run simulations whose duration varies with the drawn example,
so no hypothesis example has a deadline.
"""

from hypothesis import settings

settings.register_profile("gladsim", deadline=None)
settings.load_profile("gladsim")
